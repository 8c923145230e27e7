"""Command-line front end: parameter sweeps, figure-data reproduction, and
CSV emission with provenance."""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .config import RunConfig, apply_overrides, config_hash, load_document, parse_document
from .dicke import (DickeParams, critical_coupling, fidelity_gaussian,
                    fidelity_scaling, mode_energies, scaling_eta)
from .dicke_exact import convergence_gap, echo_exact, fidelity_exact
from .echo import collapse_check, survival_closed
from .errors import DomainError, InputError, NumericError, ResourceError
from .lmg import LmgParams, echo_lmg, eta_lmg, fidelity_lmg, gap_angle
from .squeeze import SqueezeMap
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


def _pool_map(fn, items, threads):
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _provenance(cfg: RunConfig, **extra) -> dict:
    out = {
        "config_hash": config_hash(cfg),
        "package_version": __version__,
        "numpy_version": np.__version__,
    }
    out.update({k: str(v) for k, v in extra.items()})
    return out


def _dicke_points(cfg: RunConfig):
    """(lambda1, lambda2, eta, scale) tuples from explicit pairs and the
    eta x scale x phase product; scales are fractions of the critical coupling."""
    lc = critical_coupling(cfg.omega, cfg.omega0)
    points = [(l1, l2, None, None) for l1, l2 in cfg.pairs]
    for eta in cfg.etas:
        for scale in cfg.scales:
            for phase in cfg.phases:
                if phase not in ("normal", "super"):
                    raise InputError(f"phase {phase!r} is not a dicke phase")
                sign = -1.0 if phase == "normal" else 1.0
                points.append((lc * (1.0 + sign * eta * scale),
                               lc * (1.0 + sign * scale), eta, scale))
    if not points:
        raise InputError("no parameter points: provide 'pairs' or 'etas' and 'scales'")
    return points, lc


def _lmg_points(cfg: RunConfig):
    points = [(h1, h2, None, None) for h1, h2 in cfg.pairs]
    for eta in cfg.etas:
        for scale in cfg.scales:
            for phase in cfg.phases:
                if phase not in ("symmetric", "broken"):
                    raise InputError(f"phase {phase!r} is not an lmg phase")
                sign = 1.0 if phase == "symmetric" else -1.0
                points.append((1.0 + sign * eta * scale, 1.0 + sign * scale,
                               eta, scale))
    if not points:
        raise InputError("no parameter points: provide 'pairs' or 'etas' and 'scales'")
    return points


def _run_dicke_fidelity(cfg: RunConfig):
    points, lc = _dicke_points(cfg)

    def one(point):
        l1, l2, _, _ = point
        pair = scaling_eta(l1, l2, lc)
        lp = fidelity_gaussian(DickeParams(cfg.omega, cfg.omega0, l1),
                               DickeParams(cfg.omega, cfg.omega0, l2))
        return (pair.eta, l1, l2, pair.phase, lp, fidelity_scaling(pair.eta))

    rows = _pool_map(one, points, cfg.threads)
    table = ResultTable(
        columns={
            "eta": [r[0] for r in rows],
            "lambda1": [r[1] for r in rows],
            "lambda2": [r[2] for r in rows],
            "phase": [r[3] for r in rows],
            "Lp_analytic": [r[4] for r in rows],
            "Lp_scaling": [r[5] for r in rows],
        },
        units={"eta": "1", "lambda1": "energy", "lambda2": "energy",
               "phase": "label", "Lp_analytic": "1", "Lp_scaling": "1"},
        provenance=_provenance(cfg, model="dicke", task="fidelity",
                               omega=cfg.omega, omega0=cfg.omega0,
                               lambda_c=lc),
    )
    return [(cfg.output.path, table)]


def _run_lmg_fidelity(cfg: RunConfig):
    points = _lmg_points(cfg)

    def one(point):
        h1, h2, _, _ = point
        eta = eta_lmg(h1, h2)
        phase = LmgParams(cfg.lmg_gamma, h1).phase
        lp = fidelity_lmg(cfg.lmg_gamma, h1, h2)
        return (eta, h1, h2, phase, lp, fidelity_scaling(eta))

    rows = _pool_map(one, points, cfg.threads)
    table = ResultTable(
        columns={
            "eta": [r[0] for r in rows],
            "h1": [r[1] for r in rows],
            "h2": [r[2] for r in rows],
            "phase": [r[3] for r in rows],
            "Lp_analytic": [r[4] for r in rows],
            "Lp_scaling": [r[5] for r in rows],
        },
        units={"eta": "1", "h1": "1", "h2": "1", "phase": "label",
               "Lp_analytic": "1", "Lp_scaling": "1"},
        provenance=_provenance(cfg, model="lmg", task="fidelity",
                               gamma=cfg.lmg_gamma),
    )
    return [(cfg.output.path, table)]


def _run_dicke_converge(cfg: RunConfig):
    points, _ = _dicke_points(cfg)
    l1, l2 = points[0][0], points[0][1]
    series = convergence_gap(cfg.omega, cfg.omega0, l1, l2,
                             cfg.converge.n_list, target=cfg.converge.target,
                             max_dim=cfg.exact.max_dim)
    table = ResultTable(
        columns={
            "N": [e.n_atoms for e in series.entries],
            "n_b": [e.n_boson for e in series.entries],
            "LpN": [e.lp_exact for e in series.entries],
            "D": [e.gap for e in series.entries],
        },
        units={"N": "1", "n_b": "1", "LpN": "1", "D": "1"},
        provenance=_provenance(cfg, model="dicke", task="converge",
                               lambda1=l1, lambda2=l2,
                               eta=series.meta["eta"],
                               reference=series.reference,
                               target=series.target),
    )
    return [(cfg.output.path, table)]


def _dicke_time_grid(cfg: RunConfig, omega1: float):
    if omega1 <= 0:
        raise InputError("echo needs lambda1 off the critical point")
    period = math.pi / omega1
    n = max(int(round(cfg.time_grid.periods * cfg.time_grid.samples_per_period)), 8)
    return np.linspace(0.0, cfg.time_grid.periods * period, n + 1)


def _run_dicke_echo(cfg: RunConfig):
    points, lc = _dicke_points(cfg)
    n_boson = cfg.exact.n_boson or cfg.exact.n_atoms

    def one(point):
        l1, l2, _, _ = point
        e1 = mode_energies(DickeParams(cfg.omega, cfg.omega0, l1)).e1
        grid = _dicke_time_grid(cfg, e1)
        return echo_exact(cfg.omega, cfg.omega0, cfg.exact.n_atoms, n_boson,
                          l1, l2, grid)

    series_list = _pool_map(one, points, cfg.threads)
    cols = {"pair": [], "eta": [], "lambda1": [], "lambda2": [],
            "t": [], "tau": [], "M": []}
    for i, (point, series) in enumerate(zip(points, series_list)):
        l1, l2, _, _ = point
        eta = scaling_eta(l1, l2, lc).eta if l1 != l2 else 1.0
        for k in range(len(series.t)):
            cols["pair"].append(i)
            cols["eta"].append(eta)
            cols["lambda1"].append(l1)
            cols["lambda2"].append(l2)
            cols["t"].append(float(series.t[k]))
            cols["tau"].append(float(series.tau[k]))
            cols["M"].append(float(series.echo[k]))
    table = ResultTable(
        columns=cols,
        units={"pair": "1", "eta": "1", "lambda1": "energy", "lambda2": "energy",
               "t": "1/energy", "tau": "1", "M": "1"},
        provenance=_provenance(cfg, model="dicke", task="echo",
                               n_atoms=cfg.exact.n_atoms, n_boson=n_boson),
    )
    return [(cfg.output.path, table)]


def _run_lmg_echo(cfg: RunConfig):
    points = _lmg_points(cfg)

    def one(point):
        h1, h2, _, _ = point
        delta1 = gap_angle(LmgParams(cfg.lmg_gamma, h1)).delta
        if delta1 <= 0:
            raise InputError("echo needs h1 off the critical point")
        period = math.pi / delta1
        n = max(int(round(cfg.time_grid.periods * cfg.time_grid.samples_per_period)), 8)
        grid = np.linspace(0.0, cfg.time_grid.periods * period, n + 1)
        return echo_lmg(cfg.lmg_gamma, h1, h2, grid)

    series_list = _pool_map(one, points, cfg.threads)
    cols = {"pair": [], "eta": [], "h1": [], "h2": [], "t": [], "tau": [], "M": []}
    for i, (point, series) in enumerate(zip(points, series_list)):
        h1, h2, _, _ = point
        for k in range(len(series.t)):
            cols["pair"].append(i)
            cols["eta"].append(series.meta["eta"])
            cols["h1"].append(h1)
            cols["h2"].append(h2)
            cols["t"].append(float(series.t[k]))
            cols["tau"].append(float(series.tau[k]))
            cols["M"].append(float(series.echo[k]))
    table = ResultTable(
        columns=cols,
        units={"pair": "1", "eta": "1", "h1": "1", "h2": "1",
               "t": "1/energy", "tau": "1", "M": "1"},
        provenance=_provenance(cfg, model="lmg", task="echo",
                               gamma=cfg.lmg_gamma),
    )
    return [(cfg.output.path, table)]


def _singlemode_member(cfg: RunConfig, eta: float, scale: float, tau_grid):
    """Closed-form echo member built from the exact zero-mode frequencies."""
    lc = critical_coupling(cfg.omega, cfg.omega0)
    sign = -1.0 if cfg.phases[0] == "normal" else 1.0
    l1 = lc * (1.0 + sign * eta * scale)
    l2 = lc * (1.0 + sign * scale)
    e1a = mode_energies(DickeParams(cfg.omega, cfg.omega0, l1)).e1
    e1b = mode_energies(DickeParams(cfg.omega, cfg.omega0, l2)).e1
    m = SqueezeMap(0.5 * math.log(e1b / e1a))
    return survival_closed(m, e1a, tau_grid / e1a,
                           meta={"scale": scale, "eta": eta,
                                 "lambda1": l1, "lambda2": l2}), l1, l2


def _run_collapse(cfg: RunConfig):
    if cfg.model != "dicke":
        raise InputError("collapse task currently drives the dicke model")
    if not cfg.etas or not cfg.scales:
        raise InputError("collapse needs non-empty 'etas' and 'scales'")
    n = max(int(round(cfg.time_grid.periods * cfg.time_grid.samples_per_period)), 8)
    tau_grid = np.linspace(0.0, cfg.time_grid.periods * math.pi, n + 1)
    n_boson = cfg.exact.n_boson or cfg.exact.n_atoms

    series_cols = {"eta": [], "kind": [], "scale": [], "t": [], "tau": [], "M": []}
    groups = []
    for eta in cfg.etas:
        members = []
        for scale in cfg.scales:
            series, _, _ = _singlemode_member(cfg, eta, scale, tau_grid)
            members.append(series)
            for k in range(len(series.t)):
                series_cols["eta"].append(eta)
                series_cols["kind"].append("analytic")
                series_cols["scale"].append(scale)
                series_cols["t"].append(float(series.t[k]))
                series_cols["tau"].append(float(series.tau[k]))
                series_cols["M"].append(float(series.echo[k]))
        groups.append((eta, members))
        if cfg.exact.include:
            exact_members = []
            for scale in cfg.scales:
                _, l1, l2 = _singlemode_member(cfg, eta, scale, tau_grid)
                e1 = mode_energies(DickeParams(cfg.omega, cfg.omega0, l1)).e1
                series = echo_exact(cfg.omega, cfg.omega0, cfg.exact.n_atoms,
                                    n_boson, l1, l2, tau_grid / e1)
                exact_members.append(series)
                for k in range(len(series.t)):
                    series_cols["eta"].append(eta)
                    series_cols["kind"].append("exact")
                    series_cols["scale"].append(scale)
                    series_cols["t"].append(float(series.t[k]))
                    series_cols["tau"].append(float(series.tau[k]))
                    series_cols["M"].append(float(series.echo[k]))
            groups.append((eta, exact_members))

    report = collapse_check(groups)
    kinds = []
    for eta in cfg.etas:
        kinds.append("analytic")
        if cfg.exact.include:
            kinds.append("exact")
    summary = ResultTable(
        columns={
            "eta": [g.eta for g in report.groups],
            "kind": kinds,
            "n_members": [g.n_members for g in report.groups],
            "spread": [g.spread for g in report.groups],
            "trend_decreasing": ["yes" if g.trend_decreasing else
                                 ("no" if g.trend_decreasing is False else "n/a")
                                 for g in report.groups],
            "tau_lo": [g.tau_lo for g in report.groups],
            "tau_hi": [g.tau_hi for g in report.groups],
        },
        units={"eta": "1", "kind": "label", "n_members": "1", "spread": "1",
               "trend_decreasing": "label", "tau_lo": "1", "tau_hi": "1"},
        provenance=_provenance(cfg, model="dicke", task="collapse",
                               n_atoms=cfg.exact.n_atoms, n_boson=n_boson,
                               exact_included=cfg.exact.include),
    )
    series_table = ResultTable(
        columns=series_cols,
        units={"eta": "1", "kind": "label", "scale": "1", "t": "1/energy",
               "tau": "1", "M": "1"},
        provenance=_provenance(cfg, model="dicke", task="collapse",
                               n_atoms=cfg.exact.n_atoms, n_boson=n_boson,
                               exact_included=cfg.exact.include),
    )
    root, ext = os.path.splitext(cfg.output.path)
    return [(cfg.output.path, series_table), (root + "_summary" + (ext or ".csv"), summary)]


def _run_sweep(cfg: RunConfig):
    if not cfg.etas or not cfg.scales:
        raise InputError("sweep needs non-empty 'etas' and 'scales'")
    items = [(eta, scale, phase) for eta in cfg.etas for scale in cfg.scales
             for phase in cfg.phases]

    def one(item):
        eta, scale, phase = item
        if cfg.model == "dicke":
            if phase not in ("normal", "super"):
                raise InputError(f"phase {phase!r} is not a dicke phase")
            lc = critical_coupling(cfg.omega, cfg.omega0)
            sign = -1.0 if phase == "normal" else 1.0
            p1 = lc * (1.0 + sign * eta * scale)
            p2 = lc * (1.0 + sign * scale)
            analytic = fidelity_gaussian(DickeParams(cfg.omega, cfg.omega0, p1),
                                         DickeParams(cfg.omega, cfg.omega0, p2))
        else:
            if phase not in ("symmetric", "broken"):
                raise InputError(f"phase {phase!r} is not an lmg phase")
            sign = 1.0 if phase == "symmetric" else -1.0
            p1 = 1.0 + sign * eta * scale
            p2 = 1.0 + sign * scale
            analytic = fidelity_lmg(cfg.lmg_gamma, p1, p2)
        row = {
            "model": cfg.model, "eta": eta, "scale": scale, "phase": phase,
            "param1": p1, "param2": p2,
            "Lp_analytic": analytic, "Lp_scaling": fidelity_scaling(eta),
        }
        if cfg.exact.include and cfg.model == "dicke":
            n_boson = cfg.exact.n_boson or cfg.exact.n_atoms
            row["Lp_exact"] = fidelity_exact(cfg.omega, cfg.omega0,
                                             cfg.exact.n_atoms, n_boson, p1, p2,
                                             max_dim=cfg.exact.max_dim)
        return row

    rows = _pool_map(one, items, cfg.threads)
    names = ["model", "eta", "scale", "phase", "param1", "param2",
             "Lp_analytic", "Lp_scaling"]
    if rows and "Lp_exact" in rows[0]:
        names.append("Lp_exact")
    table = ResultTable(
        columns={name: [r[name] for r in rows] for name in names},
        units={name: "1" for name in names} | {"model": "label", "phase": "label"},
        provenance=_provenance(cfg, task="sweep", model=cfg.model),
    )
    return [(cfg.output.path, table)]


_RUNNERS = {
    ("dicke", "fidelity"): _run_dicke_fidelity,
    ("lmg", "fidelity"): _run_lmg_fidelity,
    ("dicke", "converge"): _run_dicke_converge,
    ("dicke", "echo"): _run_dicke_echo,
    ("lmg", "echo"): _run_lmg_echo,
}


def run(cfg: RunConfig):
    """Execute a validated configuration; returns the written file paths."""
    if cfg.task == "collapse":
        outputs = _run_collapse(cfg)
    elif cfg.task == "sweep":
        outputs = _run_sweep(cfg)
    else:
        runner = _RUNNERS.get((cfg.model, cfg.task))
        if runner is None:
            raise InputError(f"task {cfg.task!r} is not defined for model {cfg.model!r}")
        outputs = runner(cfg)
    return [write_table(table, path) for path, table in outputs]


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
        p.add_argument("--threads", type=int, help="worker pool size")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config entry (dotted keys, JSON values)")
    return parser


def _config_from_args(args) -> RunConfig:
    model, task = _SUBCOMMANDS[args.command]
    doc = load_document(args.config) if args.config else {}
    if model is not None:
        stated = doc.get("model")
        if stated is not None and stated != model:
            raise InputError(
                f"config model {stated!r} conflicts with subcommand {args.command!r}")
        doc["model"] = model
    else:
        doc.setdefault("model", "dicke")
    stated_task = doc.get("task")
    if stated_task is not None and stated_task != task:
        raise InputError(
            f"config task {stated_task!r} conflicts with subcommand {args.command!r}")
    doc["task"] = task
    apply_overrides(doc, args.set)
    if args.output:
        doc.setdefault("output", {})["path"] = args.output
    if args.threads is not None:
        doc["threads"] = args.threads
    env_threads = os.environ.get("QPT_THREADS")
    if env_threads:
        try:
            doc["threads"] = int(env_threads)
        except ValueError as err:
            raise InputError(f"QPT_THREADS must be an integer, got {env_threads!r}") from err
    return parse_document(doc)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        for path in run(cfg):
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
