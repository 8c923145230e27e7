#!/usr/bin/env python3
"""Write the seed-0 reference values the benchmark compares outputs against.

    python3 bench/make_reference.py [WORKLOAD ...]

Runs each workload's CLI invocations once with seed 0 on the ``src/`` tree
next to this directory and stores a strided sample of every output column in
``bench/reference/<workload>.json``.  Outputs that fail the closed-form and
invariant checks are refused.  Regenerate only when the program's values are
meant to change, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import check
from run import ROOT, Bench
from workloads import WORKLOADS


def make(name: str) -> dict:
    tables = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as workdir:
        bench = Bench(WORKLOADS[name], 0, workdir, len(os.sched_getaffinity(0)))
        for inv, config, out in zip(bench.invocations, bench.config_paths, bench.out_paths):
            subprocess.run([sys.executable, "-m", "qptscale.cli", inv.subcommand,
                            "--config", config], env=bench.env, cwd=ROOT, check=True,
                           stdout=subprocess.DEVNULL)
            errors = check.check_invocation(inv, out, None)
            if errors:
                raise SystemExit("\n".join(f"{name}: {msg}" for msg in errors))
            for path in check.output_paths(inv, out):
                tables[os.path.basename(path)] = check.reference_sample(check.read_csv(path))
    return {"workload": name, "seed": 0, "atol": check.ATOL, "rtol": check.RTOL,
            "tables": tables}


def main(names) -> int:
    os.makedirs(check.REFERENCE_DIR, exist_ok=True)
    for name in names or sorted(WORKLOADS):
        data = make(name)
        path = os.path.join(check.REFERENCE_DIR, f"{name}.json")
        with open(path, "w") as handle:
            json.dump(data, handle, indent=1)
            handle.write("\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
