"""The benchmark's workloads: the qptscale CLI invocations each one makes,
generated from a seed.

Seed 0 gives the grids written out below.  Any other seed draws the same
number of eta and scale values, log-uniformly, from the ranges stated with
each workload, so that a claim can be rechecked on inputs it was not tuned
on.  The CLI only ever sees the generated config file.

The inputs stay clear of everything slated for removal or refusal: no
``--threads``, ``QPT_THREADS``, ``exact.dense_threshold`` or
``exact.max_dim``; no super-radiant (super-phase) exact rows; and no exact
echo on a parity block above 4096 (N = 64 with n_b = 64 gives 2080).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``python -m qptscale.cli SUBCOMMAND --config FILE``.

    ``config`` is complete except for ``output.path``, which the benchmark
    points into its scratch directory.
    """

    subcommand: str
    config: dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], list]


def _draw(rng: random.Random, count: int, lo: float, hi: float) -> list:
    """``count`` values log-uniform in [lo, hi], rounded to 6 digits."""
    return [float(f"{math.exp(rng.uniform(math.log(lo), math.log(hi))):.6g}")
            for _ in range(count)]


def _values(seed: int, *specs) -> list:
    """One value list per ``(seed0_values, lo, hi)`` spec: the seed-0 values
    themselves for seed 0, else as many draws from [lo, hi]."""
    if seed == 0:
        return [list(values) for values, _, _ in specs]
    rng = random.Random(seed)
    return [_draw(rng, len(values), lo, hi) for values, lo, hi in specs]


_DICKE = {"model": "dicke", "omega": 1.0, "omega0": 1.0}


def _converge(seed: int) -> list:
    # configs/fig2.json as shipped: lambda = (0.495, 0.45), i.e. eta = 0.1 at
    # scale 0.1 below lambda_c = 0.5; n_b = N.
    (eta,), (scale,) = _values(seed, ([0.1], 0.05, 0.2), ([0.1], 0.05, 0.2))
    pair = [0.495, 0.45] if seed == 0 else [0.5 * (1.0 - eta * scale),
                                            0.5 * (1.0 - scale)]
    return [Invocation("dicke-converge", {
        **_DICKE, "task": "converge", "pairs": [pair],
        "converge": {"n_list": [8, 16, 32, 64, 128], "target": "scaling"}})]


def _echo64(seed: int) -> list:
    # configs/fig3.json with exact echoes at N = 64.
    etas, scales = _values(seed, ([0.01, 0.001], 0.001, 0.01),
                           ([0.01, 0.001], 0.001, 0.01))
    return [Invocation("collapse", {
        **_DICKE, "task": "collapse", "etas": etas, "scales": scales,
        "phases": ["normal"],
        "time_grid": {"periods": 1.0, "samples_per_period": 512},
        "exact": {"include": True, "n_atoms": 64}})]


def _sweep_exact(seed: int) -> list:
    # No eta * scale product repeats or equals a scale, so the 16 ground
    # states (two per row) have 10 distinct couplings: 8 lambda1, 2 lambda2.
    etas, scales = _values(seed, ([0.05, 0.1, 0.2, 0.4], 0.05, 0.5),
                           ([0.2, 0.15], 0.1, 0.2))
    return [Invocation("sweep", {
        **_DICKE, "task": "sweep", "etas": etas, "scales": scales,
        "phases": ["normal"], "exact": {"include": True, "n_atoms": 48}})]


def _series_out(seed: int) -> list:
    etas, scales, lmg_scales = _values(
        seed, ([0.001, 0.01, 0.1, 0.5], 0.001, 0.5),
        ([0.1, 0.01, 0.001, 0.0001], 0.0001, 0.1),
        ([0.1, 0.01, 0.001], 0.001, 0.1))
    grid = {"periods": 2.0, "samples_per_period": 4096}
    return [
        Invocation("collapse", {
            **_DICKE, "task": "collapse", "etas": etas, "scales": scales,
            "phases": ["normal"], "time_grid": grid}),
        Invocation("lmg-echo", {
            "model": "lmg", "task": "echo", "lmg_gamma": 0.0, "etas": etas,
            "scales": lmg_scales, "phases": ["symmetric", "broken"],
            "time_grid": grid}),
    ]


WORKLOADS = {w.name: w for w in (
    Workload(
        "converge",
        "fig2 D(N) for N=8..128: the only workload reaching lanczos_ground "
        "(block dim 8256 at N=128); every ground state distinct, so a cache "
        "must leave it unchanged",
        _converge),
    Workload(
        "echo64",
        "fig3 with exact echoes at N=64: full spectra from eigh_dense "
        "dominate, so a Krylov echo shows here and not on converge",
        _echo64),
    Workload(
        "sweep-exact",
        "normal-phase sweep, 4 eta x 2 scales, exact fidelity at N=48: "
        "16 ground-state solves for 10 distinct keys, where a ground-state "
        "cache shows",
        _sweep_exact),
    Workload(
        "series-out",
        "analytic collapse and lmg-echo at 4096 samples per period writing "
        "~44 MB of CSV: the only workload measuring tables, echo and lmg; "
        "no exact layer runs",
        _series_out),
)}
