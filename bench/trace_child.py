"""One traced qptscale CLI invocation, run in its own process.

    python -X importtime bench/trace_child.py OUT.json SUBCOMMAND --config FILE

Imports ``qptscale.cli`` between two marker lines on standard error (so the
parent can pick this import out of the ``-X importtime`` report), replaces
each traced public function at every module that binds it with a wrapper
that records a span (name, start, end, parent), then calls
``qptscale.cli.main`` in-process.  It writes per-layer aggregates to OUT.json
and exits with the CLI's exit code.

Spans are recorded here, outside the package, so the package is measured as
it is.  A traced name the package no longer has is listed as absent.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

IMPORT_MARK = "bench-trace: import"

# (module, function) pairs; the span name drops the package prefix.
TRACED = [
    ("qptscale.config", "parse_document"),
    ("qptscale.cli", "run"),
    ("qptscale.tables", "write_table"),
    ("qptscale.echo", "survival_closed"),
    ("qptscale.echo", "collapse_check"),
    ("qptscale.lmg", "echo_lmg"),
    ("qptscale.dicke_exact", "ground_state_exact"),
    ("qptscale.dicke_exact", "build_hamiltonian"),
    ("qptscale.dicke_exact", "echo_exact"),
    ("qptscale.linalg", "eigh_dense"),
    ("qptscale.linalg", "lanczos_ground"),
    ("qptscale.linalg", "spectral_propagate"),
]
GROUND_STATE = "dicke_exact.ground_state_exact"
LANCZOS = "linalg.lanczos_ground"


class Tracer:
    """Spans kept in memory; ``stack`` holds the indices of open spans."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.matvecs = 0

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            index = len(self.spans)
            span = {"name": name, "parent": parent, "start": time.perf_counter()}
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            span.update(self._extra(name, parent, args, result))
            return result
        return traced

    def _extra(self, name, parent, args, result):
        if name == GROUND_STATE:
            system = args[0]
            return {"key": [system.n_atoms, system.n_boson, system.coupling]}
        if name == "linalg.eigh_dense":
            dim = getattr(args[0], "dim", None) or len(args[0])
            under_gs = parent is not None and self.spans[parent]["name"] == GROUND_STATE
            return {"dim": dim, "used": 1 if under_gs else dim}
        if name == "tables.write_table":
            return {"bytes": os.path.getsize(result)}
        return {}

    def wrap_matvec(self, fn):
        def counted(matrix, x):
            if any(self.spans[i]["name"] == LANCZOS for i in self.stack):
                self.matvecs += 1
            return fn(matrix, x)
        return counted

    def layers(self) -> dict:
        """Per-span-name totals: calls, s, self_s and the span extras."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out = {}
        for span, inner in zip(self.spans, child_time):
            dur = span["end"] - span["start"]
            agg = out.setdefault(span["name"], {
                "calls": 0, "s": 0.0, "self_s": 0.0, "keys": [], "dim_max": 0,
                "used": 0, "computed": 0, "bytes": 0})
            agg["calls"] += 1
            agg["s"] += dur
            agg["self_s"] += dur - inner
            if "key" in span and span["key"] not in agg["keys"]:
                agg["keys"].append(span["key"])
            if "dim" in span:
                agg["dim_max"] = max(agg["dim_max"], span["dim"])
                agg["used"] += span["used"]
                agg["computed"] += span["dim"]
            agg["bytes"] += span.get("bytes", 0)
        return out


def _install(tracer: Tracer) -> list:
    """Wrap every traced function wherever a qptscale module binds it;
    returns the names that could not be found."""
    originals, absent = {}, []
    for module_name, attr in TRACED:
        span_name = f"{module_name.split('.', 1)[1]}.{attr}"
        try:
            originals[span_name] = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError):
            absent.append(span_name)
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "qptscale" or name.startswith("qptscale."))]
    for span_name, original in originals.items():
        wrapper = tracer.wrap(span_name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    try:
        matrix_cls = importlib.import_module("qptscale.linalg").SymmetricMatrix
        matrix_cls.matvec = tracer.wrap_matvec(matrix_cls.matvec)
    except (ImportError, AttributeError):
        absent.append("linalg.SymmetricMatrix.matvec")
    return absent


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    sys.stderr.write(f"{IMPORT_MARK} start\n")
    sys.stderr.flush()
    import qptscale.cli
    sys.stderr.write(f"{IMPORT_MARK} end\n")
    sys.stderr.flush()

    tracer = Tracer()
    absent = _install(tracer)
    rc = qptscale.cli.main(cli_args)
    with open(out_path, "w") as handle:
        json.dump({"rc": rc, "absent": absent, "layers": tracer.layers(),
                   "matvecs": tracer.matvecs}, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
