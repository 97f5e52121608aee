"""twinsieve benchmark: time the CLI end to end, check its outputs, trace its layers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload (see ``workloads.py``) is
a fresh ``twinsieve`` CLI process per sample, one at a time (a closed
loop with one client), with ``--threads 1``, the seed as ``--seed`` and
BLAS/OpenMP pools pinned to one thread.  Samples follow one another while
the next is expected to end within ``--seconds``; there is at least one.

--trace 0 reports the end-to-end metrics as medians over the samples:
wall_s (spawn to exit), setup_s (spawn until ``twinsieve.cli`` is
imported and ``main`` is about to run),
cpu_s (user + system time of the child, from wait4) and peak_rss_mb.
The three times are scaled to a reference host speed measured by a
calibration kernel before and after every sample (see ``calibrate.py``);
the raw medians are printed beside them and kept in the result file.
--trace 1 alternates untraced and traced processes and reports the
per-layer metrics from the traced ones (see ``spans.py``), plus
trace.overhead_s, the traced minus the untraced median wall time.

Every process's outputs are checked after the timed region; a nonzero
exit, a timeout or a failed check counts the sample as failed.  The last
line of stdout is one JSON object {correct, attempted, failed, metrics};
a result file with the environment and every sample is written under
``.bench_out/results``.  Every run starts with one discarded warm-up
process: the workload's subcommand with ``--help``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import checks
from calibrate import REFERENCE_S, host_seconds
from spans import summarize
from workloads import COUNTERS, END_TO_END, LAYER_MAP, PER_LAYER, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}
RUN_BUDGET_S = 160.0  # a whole run, warm-up included, ends within this


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None
    import_ms: float | None
    returncode: int
    traced: bool = False
    host_s: float | None = None  # calibration time around the sample
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def spawn(root: Path, argv: list[str], work: Path, timeout: float, trace: bool = False) -> Sample:
    """Run one launcher process to completion and measure it with wait4."""
    work.mkdir(parents=True, exist_ok=True)
    mark, spans = work / "mark", work / "spans.json"
    cmd = [sys.executable, str(BENCH_DIR / "launch.py"), str(mark),
           str(spans) if trace else "-", *argv]
    with open(work / "stdout.txt", "wb") as out:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=root, env={**os.environ, **PINNED_ENV},
                                stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup_s = import_ms = None
    if mark.exists():
        t_ready, import_ms = map(float, mark.read_text().split())
        setup_s = t_ready - t0
    sample = Sample(wall_s=t1 - t0, cpu_s=usage.ru_utime + usage.ru_stime,
                    peak_rss_mb=usage.ru_maxrss * 1024 / 1e6, setup_s=setup_s,
                    import_ms=import_ms, returncode=proc.returncode, traced=trace)
    if proc.returncode != 0:
        sample.problems.append(f"exit code {proc.returncode}"
                               + (" (killed at timeout)" if t1 - t0 >= timeout else ""))
    return sample


def cli_argv(workload, seed: int, out_dir: Path) -> list[str]:
    return [*workload.argv, "--seed", str(seed), "--threads", "1", "--out", str(out_dir)]


def output_checker(workload):
    """out_dir -> list of problems for this workload; the scan oracle or the
    recorded reference is built once."""
    if workload.check == "scan":
        p = workload.params
        oracle = checks.ScanOracle(p["N"], p["k1"], p["k2"], p["alpha1"], p["alpha2"], p["cutoff"])
        check = lambda out: checks.check_scan(out, p, oracle)  # noqa: E731
    else:
        ref = checks.load_reference(workload.name)
        check_fn = checks.check_bv if workload.check == "bv" else checks.check_verify
        check = lambda out: check_fn(out, ref)  # noqa: E731

    def guarded(out_dir: Path) -> list[str]:
        try:
            return check(out_dir)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"]

    return guarded


def measure(root: Path, workload, seed: int, seconds: float, trace: bool,
            scratch: Path, deadline: float) -> list[Sample]:
    """The timed loop: one sample (with tracing, an untraced/traced pair)
    after another, while the next is expected to end within ``seconds``
    and before ``deadline``; at least one.  Outputs are checked afterwards."""
    begin = time.monotonic()
    samples, rounds = [], []
    host_before = host_seconds()
    while True:
        t0 = time.monotonic()
        for traced in ((False, True) if trace else (False,)):
            out = scratch / f"p{len(samples)}"
            sample = spawn(root, cli_argv(workload, seed, out / "out"), out,
                           deadline - time.monotonic(), trace=traced)
            host_after = host_seconds()
            sample.host_s = (host_before + host_after) / 2
            host_before = host_after
            samples.append(sample)
        rounds.append(time.monotonic() - t0)
        now = time.monotonic()
        if now - begin + statistics.median(rounds) > seconds or now + max(rounds) > deadline:
            break
    check = output_checker(workload)
    for i, sample in enumerate(samples):
        if sample.returncode == 0:
            sample.problems.extend(check(scratch / f"p{i}" / "out"))
    return samples


def warm_up(root: Path, workload, scratch: Path, deadline: float) -> None:
    """One discarded CLI process, so page cache and .pyc files are in the
    same state before every measured run, on every commit.  ``twinsieve.cli``
    imports every module of the package, so ``--help`` of the workload's
    subcommand reads and compiles all of it without spending a whole sample
    of the run's time."""
    spawn(root, [workload.argv[0], "--help"], scratch / "warm",
          (deadline - time.monotonic()) / 2)


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    p = int(100 * (1 - 10 / n))
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(samples: list[Sample], scaled: bool = True) -> dict[str, float]:
    """Medians over the passing samples (all, if none passed); with
    ``scaled`` each time is first scaled to the reference host speed."""
    good = [s for s in samples if s.ok] or samples

    def times(attr):
        for s in good:
            value = getattr(s, attr)
            if value is not None and scaled:
                value *= REFERENCE_S / s.host_s
            yield value

    return {
        "wall_s": _median(times("wall_s")),
        "setup_s": _median(times("setup_s")),
        "cpu_s": _median(times("cpu_s")),
        "peak_rss_mb": _median(s.peak_rss_mb for s in good),
    }


def per_layer(samples: list[Sample], scratch: Path) -> dict[str, float]:
    """Medians over the traced samples of the span summaries; metrics beyond
    the declared ones (per-suite check counts) go to the result file only."""
    traced = []
    for i, s in enumerate(samples):
        path = scratch / f"p{i}" / "spans.json"
        if s.traced and path.exists():
            traced.append(summarize(json.loads(path.read_text())["spans"]))
    names = dict.fromkeys([*PER_LAYER, *sorted({k for t in traced for k in t})])
    out = {name: _median(t.get(name, 0.0) for t in traced) for name in names}
    out["setup.import_ms"] = _median(s.import_ms for s in samples if s.traced)
    out["trace.overhead_s"] = (_median(s.wall_s for s in samples if s.traced)
                               - _median(s.wall_s for s in samples if not s.traced))
    return out


def environment(root: Path, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            **versions, "child_env": PINNED_ENV, "seed": seed, "git_commit": commit,
            "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "twinsieve" / "cli.py").is_file():
        print("error: run from a twinsieve checkout (src/twinsieve/cli.py not found)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    workload = WORKLOADS[args.workload]
    base = root / ".bench_out"
    scratch = base / f"run-{os.getpid()}"
    raw = {}
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        warm_up(root, workload, scratch, deadline)
        samples = measure(root, workload, args.seed, args.seconds, bool(args.trace),
                          scratch, deadline)
        if args.trace:
            metrics, units = per_layer(samples, scratch), PER_LAYER
        else:
            metrics, units = end_to_end(samples), END_TO_END
            raw = end_to_end(samples, scaled=False)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(not s.ok for s in samples)
    walls = sorted(s.wall_s for s in samples if not s.traced)
    tail = tail_percentile(walls)
    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": unit} for k, (unit, _) in units.items()}}
    record = {"workload": workload.name, "argv": list(workload.argv), "why": workload.why,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(root, args.seed),
              "samples": [asdict(s) for s in samples],
              "wall_tail": tail, "all_metrics": metrics, "raw_metrics": raw,
              "host_s_median": _median(s.host_s for s in samples), "layer_map": LAYER_MAP, **result}
    results_dir = base / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    result_file = results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    result_file.write_text(json.dumps(record, indent=1) + "\n")

    for s in samples:
        for problem in s.problems[:5]:
            print(f"FAILED sample: {problem}")
    print(f"workload {workload.name}: {len(walls)} untraced samples, wall_s "
          + (f"p{tail[0]} = {tail[1]:.4f} s" if tail else "tail percentile needs >= 20 samples")
          + f" (raw); host calibration {record['host_s_median']:.4f} s, reference {REFERENCE_S} s")
    for name, value in metrics.items():
        unit = units.get(name, ("count",))[0]
        label = COUNTERS.get(name, "")
        if name in raw and name != "peak_rss_mb":
            label = f"scaled; raw {raw[name]:.6g} {unit}"
        print(f"{name} = {value:.6g} {unit}" + (f" ({label})" if label else ""))
    print(f"result file: {result_file.relative_to(root)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
