#!/usr/bin/env python3
"""Benchmark of the qptscale command line on four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads (``bench/workloads.py``) are sets of CLI invocations whose
configs are generated from the seed.  Each invocation runs as
``python -m qptscale.cli SUBCOMMAND --config FILE`` in a child process, one
at a time, against the ``src/`` tree next to this directory; its outputs are
checked (``bench/check.py``) and deleted.  Passes over the workload repeat
while a further pass fits in S seconds, at least once.

``--trace 0`` reports the end-to-end metrics:
  wall_s       child start to exit, summed over the workload's invocations;
               median over passes
  setup_s      interpreter start, ``import qptscale.cli`` and loading plus
               schema validation of the workload's configs, in a child that
               stops before ``run``; median of one probe before each pass,
               topped up to SETUP_REPEATS
  peak_rss_mb  peak resident memory of the largest child (``os.wait4``);
               median over passes
  ok_frac      share of invocations that exited 0 and passed the checks

``--trace 1`` runs passes that each make the invocations untraced and then
traced (``bench/trace_child.py``), and reports the per-layer metrics of
PER_LAYER as medians over the traced passes, with ``trace.overhead_s`` =
median traced wall_s - median untraced wall_s.

Standard output carries an environment record, one line per metric with its
sample count, and, last, one JSON object with the keys correct, attempted,
failed and metrics.  Without a qptscale source tree the benchmark exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy
import scipy

import check
import trace_child
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
# Every run ends well within the 180 s a run may take; a child still
# running at this point is killed and counted as failed.
RUN_DEADLINE_S = 165.0
SETUP_PROBE = """\
import sys
import qptscale.cli
from qptscale.config import load_document, parse_document
for path in sys.argv[1:]:
    parse_document(load_document(path))
"""

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
# name -> (unit, span name, field of the span aggregate)
PER_LAYER = {
    "import.qptscale_cli_s": ("s", None, None),
    "import.scipy_optimize_s": ("s", None, None),
    "config.parse_document.s": ("s", "config.parse_document", "s"),
    "cli.run.self_s": ("s", "cli.run", "self_s"),
    "tables.write_table.calls": ("count", "tables.write_table", "calls"),
    "tables.write_table.s": ("s", "tables.write_table", "s"),
    "tables.write_table.bytes": ("bytes", "tables.write_table", "bytes"),
    "echo.survival_closed.s": ("s", "echo.survival_closed", "s"),
    "echo.collapse_check.s": ("s", "echo.collapse_check", "s"),
    "lmg.echo_lmg.s": ("s", "lmg.echo_lmg", "s"),
    "dicke_exact.ground_state_exact.calls": ("count", "dicke_exact.ground_state_exact", "calls"),
    "dicke_exact.ground_state_exact.s": ("s", "dicke_exact.ground_state_exact", "s"),
    "dicke_exact.ground_state_exact.self_s": ("s", "dicke_exact.ground_state_exact", "self_s"),
    "dicke_exact.ground_state_exact.unique_ratio": ("ratio", None, None),
    "dicke_exact.build_hamiltonian.calls": ("count", "dicke_exact.build_hamiltonian", "calls"),
    "dicke_exact.build_hamiltonian.s": ("s", "dicke_exact.build_hamiltonian", "s"),
    "dicke_exact.echo_exact.calls": ("count", "dicke_exact.echo_exact", "calls"),
    "dicke_exact.echo_exact.s": ("s", "dicke_exact.echo_exact", "s"),
    "dicke_exact.echo_exact.self_s": ("s", "dicke_exact.echo_exact", "self_s"),
    "linalg.eigh_dense.calls": ("count", "linalg.eigh_dense", "calls"),
    "linalg.eigh_dense.s": ("s", "linalg.eigh_dense", "s"),
    "linalg.eigh_dense.dim_max": ("count", "linalg.eigh_dense", "dim_max"),
    "linalg.eigh_dense.used_ratio": ("ratio", None, None),
    "linalg.lanczos_ground.calls": ("count", "linalg.lanczos_ground", "calls"),
    "linalg.lanczos_ground.s": ("s", "linalg.lanczos_ground", "s"),
    "linalg.lanczos_ground.matvecs": ("count", None, None),
    "linalg.spectral_propagate.calls": ("count", "linalg.spectral_propagate", "calls"),
    "linalg.spectral_propagate.s": ("s", "linalg.spectral_propagate", "s"),
    "trace.overhead_s": ("s", None, None),
    "trace.absent": ("count", None, None),
}


class SetupError(RuntimeError):
    """The program under test cannot be started; no result is printed."""


@dataclass
class Child:
    rc: int
    wall_s: float
    rss_mb: float


def run_child(argv: list, env: dict, log_base: str, deadline: float) -> Child:
    """Run one child to completion, killing it at ``deadline``; wall time is
    spawn to exit, memory the child's own peak resident set."""
    with open(log_base + ".out", "wb") as out, open(log_base + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], max(deadline - start, 0.0))[0]:
                proc.kill()
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def environment(workload, seed: int, blas_threads: int) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    revision = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            revision = proc.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "workload": workload.name, "why": workload.why, "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_revision": revision,
        "src_sha256": digest.hexdigest(), "platform": platform.platform(),
    }


class Bench:
    """One run of one workload: its configs, scratch directory and tallies."""

    def __init__(self, workload, seed: int, workdir: str, blas_threads: int):
        self.name = workload.name
        self.invocations = workload.build(seed)
        self.reference = check.load_reference(workload.name, seed)
        self.workdir = workdir
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.attempted = self.failed = 0
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONPATH", "QPT_THREADS")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(blas_threads)
        self.config_paths, self.out_paths = [], []
        for i, inv in enumerate(self.invocations):
            out_path = os.path.join(workdir, f"inv{i}.csv")
            config_path = os.path.join(workdir, f"inv{i}.json")
            with open(config_path, "w") as handle:
                json.dump({**inv.config, "output": {"path": out_path}}, handle)
            self.config_paths.append(config_path)
            self.out_paths.append(out_path)

    def setup_probe(self) -> float:
        log = os.path.join(self.workdir, "setup")
        child = run_child([sys.executable, "-c", SETUP_PROBE, *self.config_paths],
                          self.env, log, self.deadline)
        if child.rc != 0:
            with open(log + ".err") as handle:
                raise SetupError(f"setup probe exited {child.rc}: {handle.read()[-2000:]}")
        return child.wall_s

    def invoke(self, i: int, prefix: list) -> tuple:
        """Run invocation ``i`` behind ``prefix`` (the interpreter command),
        check and delete its outputs; returns the child and its log base."""
        inv = self.invocations[i]
        log = os.path.join(self.workdir, f"inv{i}")
        child = run_child([*prefix, inv.subcommand, "--config", self.config_paths[i]],
                          self.env, log, self.deadline)
        self.attempted += 1
        if child.rc != 0:
            with open(log + ".err") as handle:
                errors = [f"{inv.subcommand} exited {child.rc}: {handle.read()[-500:]}"]
        else:
            errors = check.check_invocation(inv, self.out_paths[i], self.reference)
        for path in check.output_paths(inv, self.out_paths[i]):
            if os.path.exists(path):
                os.remove(path)
        if errors:
            self.failed += 1
            for msg in errors[:5]:
                print(f"check failed: {self.name}: {msg}", file=sys.stderr)
        return child, log

    def passes(self, seconds: float, one_pass):
        """Call ``one_pass`` until another would overrun ``seconds`` or the
        run deadline; at least once.  Returns the list of its results."""
        results, durations = [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            results.append(one_pass())
            now = time.perf_counter()
            durations.append(now - t0)
            typical = statistics.median(durations)
            if now - start + typical > seconds or now + typical > self.deadline:
                return results


def _fmt(values) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


def end_to_end(bench: Bench, seconds: float) -> dict:
    python_m = [sys.executable, "-m", "qptscale.cli"]
    setup = []

    def one_pass():
        # A set-up probe before each pass samples set-up over the same
        # stretch of machine time as the passes.
        setup.append(bench.setup_probe())
        children = [bench.invoke(i, python_m)[0] for i in range(len(bench.invocations))]
        return sum(c.wall_s for c in children), max(c.rss_mb for c in children)

    results = bench.passes(seconds, one_pass)
    setup += [bench.setup_probe() for _ in range(SETUP_REPEATS - len(setup))]
    print(f"samples: setup_s {len(setup)} probes {_fmt(setup)}; wall_s "
          f"{len(results)} passes of {len(bench.invocations)} invocation(s) "
          f"{_fmt(r[0] for r in results)}")
    return {
        "wall_s": statistics.median(r[0] for r in results),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r[1] for r in results),
        "ok_frac": (bench.attempted - bench.failed) / bench.attempted,
    }


def import_times(err_path: str) -> tuple:
    """Cumulative ``-X importtime`` seconds of qptscale.cli and
    scipy.optimize inside the traced child's ``import qptscale.cli``."""
    inside, found = False, {}
    with open(err_path) as handle:
        for line in handle:
            if line.startswith(trace_child.IMPORT_MARK):
                inside = line.rstrip().endswith("start")
            elif inside and line.startswith("import time:"):
                fields = line[len("import time:"):].split("|")
                if len(fields) == 3 and fields[1].strip().isdigit():
                    found[fields[2].strip()] = int(fields[1]) / 1e6
    return found.get("qptscale.cli", 0.0), found.get("scipy.optimize", 0.0)


def layer_metrics(traces: list, imports: list) -> tuple:
    """Per-layer metrics of one traced pass from its children's reports,
    and the traced names the package lacks."""
    merged, keys, matvecs, absent = {}, set(), 0, set()
    for trace in traces:
        matvecs += trace["matvecs"]
        absent.update(trace["absent"])
        for name, agg in trace["layers"].items():
            into = merged.setdefault(name, dict.fromkeys(agg, 0))
            for field, value in agg.items():
                if field == "keys":
                    keys.update(map(tuple, value))
                elif field == "dim_max":
                    into[field] = max(into[field], value)
                else:
                    into[field] += value
    out = {metric: merged.get(span, {}).get(field, 0)
           for metric, (_, span, field) in PER_LAYER.items() if span is not None}
    gs = merged.get("dicke_exact.ground_state_exact", {})
    eigh = merged.get("linalg.eigh_dense", {})
    out.update({
        "import.qptscale_cli_s": sum(cli for cli, _ in imports),
        "import.scipy_optimize_s": sum(opt for _, opt in imports),
        "dicke_exact.ground_state_exact.unique_ratio":
            len(keys) / gs["calls"] if gs.get("calls") else 0.0,
        "linalg.eigh_dense.used_ratio":
            eigh["used"] / eigh["computed"] if eigh.get("computed") else 0.0,
        "linalg.lanczos_ground.matvecs": matvecs,
    })
    return out, sorted(absent)


def per_layer(bench: Bench, seconds: float) -> dict:
    """Passes of the workload untraced then traced, back to back, so that
    the overhead is measured under the same machine load."""
    python_m = [sys.executable, "-m", "qptscale.cli"]

    def one_pass():
        untraced = sum(bench.invoke(i, python_m)[0].wall_s
                       for i in range(len(bench.invocations)))
        traced, traces, imports = 0.0, [], []
        for i in range(len(bench.invocations)):
            report = os.path.join(bench.workdir, f"trace{i}.json")
            child, log = bench.invoke(i, [sys.executable, "-X", "importtime",
                                          str(BENCH / "trace_child.py"), report])
            traced += child.wall_s
            imports.append(import_times(log + ".err"))
            if os.path.exists(report):
                with open(report) as handle:
                    traces.append(json.load(handle))
                os.remove(report)
        return (untraced, traced, *layer_metrics(traces, imports))

    results = bench.passes(seconds, one_pass)
    untraced, traced, layers, absent = zip(*results)
    if absent[0]:
        print(f"absent: {', '.join(absent[0])}")
    counts = [{k: v for k, v in m.items() if PER_LAYER[k][0] != "s"} for m in layers]
    if any(c != counts[0] for c in counts):
        print("warning: per-layer counts differ between traced passes")
    print(f"samples: {len(results)} pass(es), each untraced then traced; wall_s "
          f"untraced {_fmt(untraced)}, traced {_fmt(traced)}")
    out = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    out.update({"trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
                "trace.absent": len(absent[0])})
    return {name: out[name] for name in PER_LAYER}


def run_workload(workload, seed: int, seconds: float, trace: bool) -> int:
    """Run and report one workload; 0 on a printed result, 2 on a setup failure."""
    blas_threads = len(os.sched_getaffinity(0))
    print("env: " + json.dumps(environment(workload, seed, blas_threads)))
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        bench = Bench(workload, seed, workdir, blas_threads)
        if trace:
            values, units = per_layer(bench, seconds), {k: v[0] for k, v in PER_LAYER.items()}
        else:
            values, units = end_to_end(bench, seconds), END_TO_END
    except SetupError as err:
        print(f"setup failed: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    for name, value in values.items():
        print(f"metric {workload.name} {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, nargs="+", choices=sorted(WORKLOADS),
                        help="one or more workloads, run in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through run_child so the running child is killed
    # and reaped and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "qptscale" / "cli.py").is_file():
        print(f"no qptscale source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in args.workload:
        rc = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
