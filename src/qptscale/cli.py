"""Command-line front end: subcommands, one model table, and CSV emission
with provenance."""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__
from .config import (RunConfig, _set_dotted, apply_overrides, config_hash, load_document,
                     parse_document)
from .dicke import (DickeParams, critical_coupling, fidelity_gaussian,
                    fidelity_scaling, mode_energies, scaling_eta)
from .dicke_exact import TruncatedDicke, echo_exact, fidelity_exact, solve_once
from .echo import collapse_check, survival_closed
from .errors import DomainError, InputError, NumericError, ResourceError
from .linalg import GROUND_TOL, SURVIVAL_TOL
from .lmg import LmgParams, echo_lmg, fidelity_lmg, gap
from .squeeze import width_map
from .tables import ResultTable, write_table

_SUBCOMMANDS = {
    "dicke-fidelity": ("dicke", "fidelity"),
    "dicke-echo": ("dicke", "echo"),
    "dicke-converge": ("dicke", "converge"),
    "lmg-fidelity": ("lmg", "fidelity"),
    "lmg-echo": ("lmg", "echo"),
    "collapse": (None, "collapse"),
    "sweep": (None, "sweep"),
}

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_RESOURCE = 3
_EXIT_NUMERIC = 4

MAX_TIME_SAMPLES = 10**6  # samples in one echo time grid

_SOLVER_INFO = {"ground_tol": GROUND_TOL, "survival_tol": SURVIVAL_TOL}  # of every exact table
_SWEEP_PARAMS = ("param1", "param2")  # sweep's columns of a model's two parameters


@dataclass(frozen=True)
class _Model:
    """What every task needs to know about one model.  Callables take the
    run config first; ``p1``/``p2`` are the two control-parameter values."""

    tasks: frozenset
    critical: Callable       # (cfg) -> critical parameter value pc
    signs: dict              # phase -> sign of (p - pc)
    params: tuple            # (name of p1 column, name of p2 column)
    unit: str                # unit of the parameter columns
    fidelity: Callable       # (cfg, p1, p2) -> analytic Lp
    omega1: Callable         # (cfg, p) -> zero-mode frequency at p
    echo: Callable           # (cfg, p1, p2, t) -> EchoSeries
    exact_fidelity: Callable | None  # (cfg, p1, p2, n_atoms) -> finite-size Lp^N
    effective: Callable | None  # (cfg, p1, p2) -> converge's "effective" reference
    info: Callable           # (cfg) -> model parameters, recorded in every table
    exact_info: Callable     # (cfg) -> basis and solver of exact echoes and fidelities


def _n_boson(cfg: RunConfig, n_atoms: int) -> int:  # the cutoff of every exact task
    if cfg.exact.n_boson is None and n_atoms < 2:  # a set n_boson passed its rule
        raise InputError(f"exact.n_boson defaults to N = {n_atoms}, but a truncation "
                         f"needs at least 2 boson levels: set exact.n_boson")
    return cfg.exact.n_boson or n_atoms


def _dicke(cfg: RunConfig, coupling: float) -> DickeParams:
    return DickeParams(cfg.omega, cfg.omega0, coupling)


def _truncated(cfg: RunConfig, n_atoms: int, coupling: float) -> TruncatedDicke:
    return TruncatedDicke(n_atoms, _n_boson(cfg, n_atoms), cfg.omega, cfg.omega0, coupling)


_MODELS = {
    "dicke": _Model(
        tasks=frozenset({"fidelity", "echo", "converge", "collapse", "sweep"}),
        critical=lambda cfg: critical_coupling(cfg.omega, cfg.omega0),
        signs={"normal": -1.0, "super": 1.0},
        params=("lambda1", "lambda2"),
        unit="energy",
        fidelity=lambda cfg, l1, l2: fidelity_gaussian(_dicke(cfg, l1), _dicke(cfg, l2)),
        omega1=lambda cfg, l1: mode_energies(_dicke(cfg, l1)).e1,
        echo=lambda cfg, l1, l2, t: echo_exact(_truncated(cfg, cfg.exact.n_atoms, l1), l2, t),
        exact_fidelity=lambda cfg, l1, l2, n: fidelity_exact(_truncated(cfg, n, l1), l2),
        # shared-rotation Gaussian (exact at omega == omega0), not ``fidelity``
        effective=lambda cfg, l1, l2: fidelity_gaussian(
            _dicke(cfg, l1), _dicke(cfg, l2), shared_rotation=True),
        info=lambda cfg: {"omega": cfg.omega, "omega0": cfg.omega0,
                          "lambda_c": critical_coupling(cfg.omega, cfg.omega0)},
        exact_info=lambda cfg: {"n_atoms": cfg.exact.n_atoms,
                                "n_boson": _n_boson(cfg, cfg.exact.n_atoms)} | _SOLVER_INFO,
    ),
    "lmg": _Model(
        tasks=frozenset({"fidelity", "echo", "sweep"}),
        critical=lambda cfg: 1.0,
        signs={"symmetric": 1.0, "broken": -1.0},
        params=("h1", "h2"),
        unit="1",
        fidelity=lambda cfg, h1, h2: fidelity_lmg(cfg.lmg_gamma, h1, h2),
        omega1=lambda cfg, h1: gap(LmgParams(cfg.lmg_gamma, h1)),
        echo=lambda cfg, h1, h2, t: echo_lmg(cfg.lmg_gamma, h1, h2, t),
        exact_fidelity=None,
        effective=None,
        info=lambda cfg: {"gamma": cfg.lmg_gamma},
        exact_info=lambda cfg: {},  # the LMG echo is closed-form
    ),
}


def _table(cfg: RunConfig, columns: dict, **info) -> ResultTable:
    """A column's unit follows from it: a str column is "label", the model's
    parameter columns carry the model's unit, t is "1/energy" and every other
    column is dimensionless ("1").  The provenance block is the config hash,
    the versions, the model, its parameters, the task and ``info``."""
    model = _MODELS[cfg.model]
    named = dict.fromkeys(model.params + _SWEEP_PARAMS, model.unit) | {"t": "1/energy"}
    units = {name: "label" if values.dtype.kind == "U" else named.get(name, "1")
             for name, values in columns.items()}
    provenance = {"config_hash": config_hash(cfg), "package_version": __version__,
                  "numpy_version": np.__version__, "model": cfg.model, "task": cfg.task}
    info = model.info(cfg) | info
    return ResultTable(columns=columns, units=units,
                       provenance=provenance | {k: str(v) for k, v in info.items()})


def _label(cfg: RunConfig, model: _Model, p1: float, p2: float):
    """(eta, phase) of a pair: the phase is the one whose ``signs`` entry is
    the sign of p1 - pc."""
    pc = model.critical(cfg)
    eta = scaling_eta(p1, p2, pc)
    return eta, next(phase for phase, sign in model.signs.items() if sign * (p1 - pc) > 0)


def _points(cfg: RunConfig, model: _Model):
    """(p1, p2, eta, scale, phase) tuples: explicit pairs (eta, scale and phase
    None), then the eta x scale x phase grid, scales in units of the critical pc
    and phases, unless given, the model's first one.  Phases given with no grid
    are refused, as they would shape nothing.  No point has p1 or p2 at pc."""
    pc = model.critical(cfg)
    phases = (next(iter(model.signs)),) if cfg.phases is None else cfg.phases
    for phase in phases:
        if phase not in model.signs:
            raise InputError(f"phase {phase!r} is not a phase of model {cfg.model!r}")
    if bool(cfg.etas) != bool(cfg.scales):
        raise InputError("'etas' and 'scales' must both be empty or both non-empty")
    if cfg.phases is not None and not cfg.etas:
        raise InputError("'phases' only shapes the eta x scale grid, which is empty")
    points = [(p1, p2, None, None, None) for p1, p2 in cfg.pairs]
    for eta in cfg.etas:
        for scale in cfg.scales:
            for phase in phases:
                sign = model.signs[phase]
                points.append((pc * (1.0 + sign * eta * scale),
                               pc * (1.0 + sign * scale), eta, scale, phase))
    if not points:
        raise InputError("no parameter points: provide 'pairs' or 'etas' and 'scales'")
    for p1, p2, *_ in points:
        if pc in (p1, p2):
            raise InputError(f"{model.params[0]} = {p1!r}, {model.params[1]} = {p2!r}: "
                             f"both must lie off the critical point {pc!r}")
    return points


def _grid_only(cfg: RunConfig) -> None:
    """Refuse the pairs that the eta x scale grid tasks would otherwise ignore."""
    if cfg.pairs:
        raise InputError(f"{cfg.task} takes 'etas' and 'scales', not 'pairs'")


def _time_grid(cfg: RunConfig, omega1: float):
    """cfg.time_grid.periods echo periods pi/omega1, sampled uniformly."""
    samples = cfg.time_grid.periods * cfg.time_grid.samples_per_period
    if samples > MAX_TIME_SAMPLES:
        raise ResourceError(
            f"time grid of {samples:.3g} samples exceeds the cap {MAX_TIME_SAMPLES}")
    n = max(int(round(samples)), 8)
    return np.linspace(0.0, cfg.time_grid.periods * (math.pi / omega1), n + 1)


def _series_columns(names, items) -> dict:
    """Stack (constants, EchoSeries) items into columns: one column per name
    in ``names`` repeating that item's constant, then t, tau and M, each one
    float64 array."""
    sizes = [len(series.t) for _, series in items]
    cols = {name: np.repeat([constants[i] for constants, _ in items], sizes)
            for i, name in enumerate(names)}
    for name, attr in (("t", "t"), ("tau", "tau"), ("M", "echo")):
        cols[name] = np.concatenate([getattr(series, attr) for _, series in items],
                                    dtype=np.float64)
    return cols


def _columns(names, rows) -> dict:
    """One array per name, of the rows' cells at that name's position."""
    return {name: np.array([row[i] for row in rows]) for i, name in enumerate(names)}


def _run_fidelity(cfg: RunConfig, model: _Model):
    rows = []
    for p1, p2, *_ in _points(cfg, model):
        eta, phase = _label(cfg, model, p1, p2)
        rows.append((eta, p1, p2, phase, model.fidelity(cfg, p1, p2),
                     fidelity_scaling(eta)))
    names = ("eta", *model.params, "phase", "Lp_analytic", "Lp_scaling")
    return [(cfg.output.path, _table(cfg, _columns(names, rows)))]


def _run_converge(cfg: RunConfig, model: _Model):
    """D(N) = |Lp^N - reference| over n_list; the reference is the eta law
    ("scaling") or the model's effective fidelity ("effective")."""
    points = _points(cfg, model)
    if len(points) > 1:
        raise InputError(f"converge takes one parameter point, got {len(points)}")
    p1, p2 = points[0][:2]
    eta = _label(cfg, model, p1, p2)[0]
    reference = (model.effective(cfg, p1, p2) if cfg.converge.target == "effective"
                 else fidelity_scaling(eta))
    lps = {n: model.exact_fidelity(cfg, p1, p2, n) for n in cfg.converge.n_list}
    rows = [(n, _n_boson(cfg, n), lp, abs(lp - reference)) for n, lp in lps.items()]
    return [(cfg.output.path, _table(
        cfg, _columns(("N", "n_b", "LpN", "D"), rows), **dict(zip(model.params, (p1, p2))),
        eta=eta, reference=reference, target=cfg.converge.target, **_SOLVER_INFO))]


def _run_echo(cfg: RunConfig, model: _Model):
    items = []
    for i, (p1, p2, *_) in enumerate(_points(cfg, model)):
        series = model.echo(cfg, p1, p2, _time_grid(cfg, model.omega1(cfg, p1)))
        items.append(((i, _label(cfg, model, p1, p2)[0], p1, p2), series))
    columns = _series_columns(("pair", "eta", *model.params), items)
    return [(cfg.output.path, _table(cfg, columns, **model.exact_info(cfg)))]


def _run_collapse(cfg: RunConfig, model: _Model):
    """Closed-form zero-mode echoes (and, with exact.include, exact ones) on
    the rescaled grid tau = omega1 * t; one collapse group per eta and kind."""
    _grid_only(cfg)
    points = _points(cfg, model)
    if len(points) != len(cfg.etas) * len(cfg.scales):  # one point per eta and scale
        raise InputError(f"collapse takes one phase, got {len(cfg.phases)}")
    tau_grid = _time_grid(cfg, 1.0)  # t in units of 1/omega1
    kinds = ("analytic", "exact") if cfg.exact.include else ("analytic",)
    groups = []  # (eta, kind, [(scale, EchoSeries), ...]) in output order
    for k in range(0, len(points), len(cfg.scales)):
        members = {kind: [] for kind in kinds}
        for l1, l2, eta, scale, _ in points[k:k + len(cfg.scales)]:
            e1a, e1b = model.omega1(cfg, l1), model.omega1(cfg, l2)
            members["analytic"].append((scale, survival_closed(
                width_map(e1a, e1b), e1a, tau_grid / e1a)))
            if cfg.exact.include:
                members["exact"].append((scale, model.echo(cfg, l1, l2, tau_grid / e1a)))
        groups += [(eta, kind, members[kind]) for kind in kinds]
    report = collapse_check((eta, group) for eta, _, group in groups)
    trend = {True: "yes", False: "no", None: "n/a"}
    rows = [(g.eta, kind, g.n_members, g.spread, trend[g.trend_decreasing], g.tau_lo,
             g.tau_hi) for g, (_, kind, _) in zip(report, groups)]
    names = ("eta", "kind", "n_members", "spread", "trend_decreasing", "tau_lo", "tau_hi")
    series = _series_columns(("eta", "kind", "scale"), [
        ((eta, kind, scale), s) for eta, kind, group in groups for scale, s in group])
    info = dict(exact_included=cfg.exact.include,
                **(model.exact_info(cfg) if cfg.exact.include else {}))
    root, ext = os.path.splitext(cfg.output.path)
    return [(cfg.output.path, _table(cfg, series, **info)),
            (root + "_summary" + (ext or ".csv"), _table(cfg, _columns(names, rows), **info))]


def _run_sweep(cfg: RunConfig, model: _Model):
    _grid_only(cfg)
    if cfg.exact.include and model.exact_fidelity is None:
        raise InputError(f"model {cfg.model!r} has no exact fidelity; drop exact.include")
    rows = []
    for p1, p2, eta, scale, phase in _points(cfg, model):
        row = (cfg.model, eta, scale, phase, p1, p2, model.fidelity(cfg, p1, p2),
               fidelity_scaling(eta))
        if cfg.exact.include:
            row += (model.exact_fidelity(cfg, p1, p2, cfg.exact.n_atoms),)
        rows.append(row)
    names = ("model", "eta", "scale", "phase", *_SWEEP_PARAMS, "Lp_analytic",
             "Lp_scaling") + (("Lp_exact",) if cfg.exact.include else ())
    info = model.exact_info(cfg) if cfg.exact.include else {}
    return [(cfg.output.path, _table(cfg, _columns(names, rows), **info))]


_RUNNERS = {
    "fidelity": _run_fidelity,
    "echo": _run_echo,
    "converge": _run_converge,
    "collapse": _run_collapse,
    "sweep": _run_sweep,
}


def run(cfg: RunConfig):
    """Execute a validated configuration; returns the written file paths.
    Each distinct exact ground state is solved once per run."""
    model = _MODELS[cfg.model]
    if cfg.task not in model.tasks:
        raise InputError(f"task {cfg.task!r} is not defined for model {cfg.model!r}")
    with solve_once():
        tables = _RUNNERS[cfg.task](cfg, model)
    return [write_table(table, path) for path, table in tables]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qptscale",
        description="Critical-ratio scaling data for single-zero-mode quantum "
                    "phase transitions: fidelity, truncation convergence, and "
                    "Loschmidt echoes for the Dicke and LMG models.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (model, task) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=f"{task} task" + (f" ({model} model)" if model else ""))
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--output", help="override the output path")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config entry (dotted keys, JSON values)")
    return parser


def _config_from_args(args) -> RunConfig:
    """The file, ``--set`` and ``--output``, then model and task: the
    subcommand's (collapse and sweep: the document's model, "dicke" if unset)."""
    model, task = _SUBCOMMANDS[args.command]
    doc = {} if args.config is None else load_document(args.config)
    apply_overrides(doc, args.set)
    if args.output is not None:
        _set_dotted(doc, "output.path", args.output)
    for key, value in (("model", model or doc.get("model", "dicke")), ("task", task)):
        if doc.setdefault(key, value) != value:
            raise InputError(
                f"config {key} {doc[key]!r} conflicts with subcommand {args.command!r}")
    return parse_document(doc)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for path in run(_config_from_args(args)):
            print(path)
        return _EXIT_OK
    except (InputError, DomainError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return _EXIT_USAGE
    except ResourceError as err:
        print(f"resource error: {err}", file=sys.stderr)
        return _EXIT_RESOURCE
    except NumericError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return _EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
