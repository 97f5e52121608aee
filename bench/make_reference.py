"""Record the bv-mu and verify-fast references from one CLI run each.

    python3 bench/make_reference.py

Run from the root of the checkout whose outputs define the reference.
The references pin today's results so that a later change to the code
under test must reproduce them; regenerating them to make a check pass
defeats the check.
"""

import csv
import json
import shutil
import sys
from pathlib import Path

from checks import REFERENCE_DIR
from run import cli_argv, spawn
from workloads import WORKLOADS


def _dump(ref: dict) -> str:
    """JSON with one list item per line, so diffs of a reference stay readable."""
    def value(v):
        if isinstance(v, list):
            return "[\n" + ",\n".join(json.dumps(x) for x in v) + "\n]"
        return json.dumps(v)

    return "{\n" + ",\n".join(f"{json.dumps(k)}: {value(v)}" for k, v in ref.items()) + "\n}\n"


def main() -> int:
    root, work = Path.cwd(), Path.cwd() / ".bench_out" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    for name in ("bv-mu", "verify-fast"):
        out = work / name / "out"
        sample = spawn(root, cli_argv(WORKLOADS[name], 0, out), work / name, timeout=300)
        if sample.returncode != 0:
            print(f"error: {name} exited with {sample.returncode}", file=sys.stderr)
            return 1
        results = json.loads((out / f"{name.split('-')[0]}.json").read_text())["results"]
        if name == "bv-mu":
            with open(out / "bv.csv", newline="") as fh:
                rows = [[int(r["P"]), int(r["q"]), float(r["discrepancy"])]
                        for r in csv.DictReader(fh)]
            ref = {"rows": rows, "totals": results["totals"]}
        else:
            ref = {"checks": [c["check"] for c in results["checks"]]}
        (REFERENCE_DIR / f"{name}.json").write_text(_dump(ref))
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
