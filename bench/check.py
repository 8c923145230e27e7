"""Correctness gate for the benchmark's CLI outputs.

Every output CSV is checked in three ways:

1. Against reference values stored in ``bench/reference/<workload>.json``
   (seed 0 only): every column at evenly strided rows, numbers to within
   ``ATOL + RTOL * |reference|``, labels exactly.  ``# provenance`` lines
   are ignored, because ``config_hash`` hashes settings (such as
   ``exact.dense_threshold``) whose removal changes bytes but not values.
2. Against closed forms recomputed here, independently of the package, for
   the columns that have one: the ratio-only fidelity law, the parameter
   grids, and the single-mode echo for the analytic Dicke and LMG series.
3. Against invariants that hold for any seed: D(N) strictly decreasing,
   0 <= M <= 1, M(0) = 1, fidelities in (0, 1], exact collapse of the
   analytic Dicke series at omega = omega0.

``check_invocation`` returns a list of failure messages; empty means correct.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# Krylov and dense solvers agree on these outputs to ~1e-12, so 1e-9 leaves
# room for a change of solver while catching any real change of value.
ATOL = 1e-9
RTOL = 1e-9
# Stored reference rows per column: all of a short table, a stride of a long one.
REFERENCE_ROWS = 128

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def output_paths(invocation, out_path: str) -> list:
    """Files the CLI writes for one invocation (collapse adds a summary)."""
    if invocation.config["task"] == "collapse":
        root, ext = os.path.splitext(out_path)
        return [out_path, root + "_summary" + ext]
    return [out_path]


def read_csv(path: str) -> dict:
    """Columns of a qptscale CSV: float arrays where every cell parses as a
    number, string arrays otherwise.  Comment lines are skipped."""
    skip = 0
    with open(path) as handle:
        for line in handle:
            skip += 1
            if not line.startswith("#"):
                header = line.rstrip("\n").split(",")
                first = handle.readline().rstrip("\n").split(",")
                break
        else:
            raise ValueError(f"{path}: no header row")
    if first == [""]:
        return {name: np.empty(0) for name in header}
    kinds = []
    for cell in first:
        try:
            float(cell)
            kinds.append(float)
        except ValueError:
            kinds.append(str)
    cols = {}
    for dtype in (float, str):
        idx = [i for i, kind in enumerate(kinds) if kind is dtype]
        if idx:
            data = np.loadtxt(path, delimiter=",", skiprows=skip, usecols=idx,
                              dtype=dtype, ndmin=2)
            cols.update({header[i]: data[:, j] for j, i in enumerate(idx)})
    return {name: cols[name] for name in header}


def reference_sample(cols: dict) -> dict:
    """What is stored for one table: row count, stride and strided rows."""
    rows = len(next(iter(cols.values())))
    stride = max(1, math.ceil(rows / REFERENCE_ROWS))
    return {"rows": rows, "stride": stride,
            "columns": {name: col[::stride].tolist() for name, col in cols.items()}}


def load_reference(workload: str, seed: int):
    """Stored tables by file name, or None when the seed has no reference."""
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    if seed != 0 or not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)["tables"]


def _compare_reference(key: str, cols: dict, ref: dict, errors: list) -> None:
    rows = len(next(iter(cols.values())))
    if rows != ref["rows"] or list(cols) != list(ref["columns"]):
        errors.append(f"{key}: shape {rows} x {list(cols)} differs from reference "
                      f"{ref['rows']} x {list(ref['columns'])}")
        return
    for name, want in ref["columns"].items():
        got = cols[name][::ref["stride"]]
        if got.dtype.kind == "f":
            want = np.asarray(want, dtype=float)
            bad = np.abs(got - want) > ATOL + RTOL * np.abs(want)
        else:
            bad = got != np.asarray(want, dtype=str)
        if np.any(bad):
            i = int(np.argmax(bad))
            errors.append(f"{key}: column {name} row {i * ref['stride']} is "
                          f"{got[i]}, reference {want[i]}")


def _close(got, want) -> np.ndarray:
    return np.abs(np.asarray(got) - np.asarray(want)) <= ATOL + RTOL * np.abs(want)


def _expect(errors: list, ok, what: str) -> None:
    if not np.all(ok):
        errors.append(what)


def fidelity_scaling(eta):
    """Ratio-only fidelity law sqrt(2) eta^(1/8) / sqrt(sqrt(eta) + 1)."""
    eta = np.asarray(eta, dtype=float)
    return math.sqrt(2.0) * eta**0.125 / np.sqrt(np.sqrt(eta) + 1.0)


def single_mode_echo(r: float, delta1: float, t):
    """Echo of a vacuum squeezed by r, evolved with gap delta1:
    (1 - q^2) / sqrt((1 - q^2)^2 + 4 q^2 sin^2(delta1 t)), q = tanh r."""
    q = math.tanh(r)
    omq2 = 1.0 / math.cosh(r) ** 2
    return omq2 / np.sqrt(omq2**2 + 4.0 * q * q * np.sin(delta1 * t) ** 2)


def _dicke_lc(cfg) -> float:
    return 0.5 * math.sqrt(cfg["omega"] * cfg["omega0"])


def _dicke_e1(cfg, lam: float) -> float:
    """Lower normal-phase mode energy of the Dicke model."""
    w, w0 = cfg["omega"], cfg["omega0"]
    disc = math.sqrt((w0 * w0 - w * w) ** 2 + 16.0 * lam * lam * w * w0)
    return math.sqrt(max(0.5 * (w * w + w0 * w0 - disc), 0.0))


def _samples(cfg) -> int:
    grid = cfg["time_grid"]
    return max(int(round(grid["periods"] * grid["samples_per_period"])), 8) + 1


def _check_converge(cfg, cols, errors):
    n_list = cfg["converge"]["n_list"]
    (l1, l2), = cfg["pairs"]
    lc = _dicke_lc(cfg)
    eta = (l1 - lc) / (l2 - lc)
    _expect(errors, list(cols["N"]) == n_list and list(cols["n_b"]) == n_list,
            f"N or n_b column differs from n_list {n_list}")
    _expect(errors, (cols["LpN"] > 0) & (cols["LpN"] <= 1), "LpN outside (0, 1]")
    _expect(errors, _close(cols["D"], np.abs(cols["LpN"] - fidelity_scaling(eta))),
            "D differs from |LpN - Lp_scaling(eta)|")
    _expect(errors, np.all(np.diff(cols["D"]) < 0), "D(N) not strictly decreasing")


def _check_sweep(cfg, cols, errors):
    lc = _dicke_lc(cfg)
    items = [(eta, scale) for eta in cfg["etas"] for scale in cfg["scales"]]
    eta = np.array([e for e, _ in items])
    scale = np.array([s for _, s in items])
    if len(cols["eta"]) != len(items):
        errors.append(f"sweep has {len(cols['eta'])} rows, expected {len(items)}")
        return
    _expect(errors, np.all(cols["phase"] == "normal"), "sweep row not in the normal phase")
    _expect(errors, (cols["eta"] == eta) & (cols["scale"] == scale), "eta/scale grid differs")
    _expect(errors, _close(cols["param1"], lc * (1.0 - eta * scale))
            & _close(cols["param2"], lc * (1.0 - scale)), "param1/param2 differ from the grid")
    _expect(errors, _close(cols["Lp_scaling"], fidelity_scaling(eta)),
            "Lp_scaling differs from the closed form")
    for name in ("Lp_analytic", "Lp_exact"):
        _expect(errors, (cols[name] > 0) & (cols[name] <= 1.0 + 1e-12), f"{name} outside (0, 1]")


def _check_echo_rows(m, errors, what):
    _expect(errors, (m >= -1e-12) & (m <= 1.0 + 1e-10), f"{what}: M outside [0, 1]")
    _expect(errors, abs(m[0] - 1.0) <= 1e-10, f"{what}: M(0) != 1")


def _check_collapse(cfg, cols, summary, errors):
    lc = _dicke_lc(cfg)
    n = _samples(cfg)
    periods = cfg["time_grid"]["periods"]
    kinds = ["analytic", "exact"] if cfg.get("exact", {}).get("include") else ["analytic"]
    members = [(eta, kind, scale) for eta in cfg["etas"] for kind in kinds
               for scale in cfg["scales"]]
    if len(cols["M"]) != len(members) * n:
        errors.append(f"collapse series has {len(cols['M'])} rows, expected {len(members) * n}")
        return
    tau_grid = np.linspace(0.0, periods * math.pi, n)
    for i, (eta, kind, scale) in enumerate(members):
        rows = slice(i * n, (i + 1) * n)
        what = f"collapse member eta={eta} scale={scale} {kind}"
        _expect(errors, np.all(cols["kind"][rows] == kind)
                & np.all(cols["eta"][rows] == eta) & np.all(cols["scale"][rows] == scale),
                f"{what}: labels differ from the grid")
        e1a = _dicke_e1(cfg, lc * (1.0 - eta * scale))
        e1b = _dicke_e1(cfg, lc * (1.0 - scale))
        t, tau, m = cols["t"][rows], cols["tau"][rows], cols["M"][rows]
        _expect(errors, _close(tau, tau_grid) & _close(t * e1a, tau),
                f"{what}: time grid is not tau = omega1 t on [0, {periods} pi]")
        _check_echo_rows(m, errors, what)
        if kind == "analytic":
            _expect(errors, _close(m, single_mode_echo(0.5 * math.log(e1b / e1a), e1a, t)),
                    f"{what}: M differs from the single-mode closed form")
    groups = [(eta, kind) for eta in cfg["etas"] for kind in kinds]
    if len(summary["eta"]) != len(groups):
        errors.append(f"collapse summary has {len(summary['eta'])} rows, expected {len(groups)}")
        return
    _expect(errors, (summary["eta"] == [g[0] for g in groups])
            & (summary["kind"] == [g[1] for g in groups])
            & (summary["n_members"] == len(cfg["scales"])), "summary labels differ from the grid")
    _expect(errors, _close(summary["tau_lo"], 0.0) & _close(summary["tau_hi"], periods * math.pi),
            "summary tau window differs from [0, periods pi]")
    _expect(errors, summary["spread"] >= 0, "negative collapse spread")
    # At omega == omega0 the analytic echo depends on eta and tau only.
    analytic = summary["kind"] == "analytic"
    if cfg["omega"] == cfg["omega0"]:
        _expect(errors, summary["spread"][analytic] <= 1e-9, "analytic series do not collapse")


def _lmg_mode(gamma: float, h: float):
    """Gap and Bogoliubov angle of the LMG collective mode."""
    if h > 1.0:
        delta = 2.0 * math.sqrt((h - 1.0) * (h - gamma))
        tanh_theta = (1.0 - gamma) / (2.0 * h - 1.0 - gamma)
    else:
        delta = 2.0 * math.sqrt((1.0 - h * h) * (1.0 - gamma))
        tanh_theta = (h * h - gamma) / (2.0 - h * h - gamma)
    return delta, math.atanh(tanh_theta)


def _check_lmg_echo(cfg, cols, errors):
    gamma = cfg["lmg_gamma"]
    n = _samples(cfg)
    periods = cfg["time_grid"]["periods"]
    points = [(eta, scale, 1.0 if phase == "symmetric" else -1.0)
              for eta in cfg["etas"] for scale in cfg["scales"] for phase in cfg["phases"]]
    if len(cols["M"]) != len(points) * n:
        errors.append(f"lmg echo has {len(cols['M'])} rows, expected {len(points) * n}")
        return
    for i, (eta, scale, sign) in enumerate(points):
        rows = slice(i * n, (i + 1) * n)
        h1, h2 = 1.0 + sign * eta * scale, 1.0 + sign * scale
        what = f"lmg pair {i} (h1={h1}, h2={h2})"
        _expect(errors, np.all(cols["pair"][rows] == i) & _close(cols["h1"][rows], h1)
                & _close(cols["h2"][rows], h2)
                & _close(cols["eta"][rows], (h1 - 1.0) / (h2 - 1.0)),
                f"{what}: labels differ from the grid")
        delta1, theta1 = _lmg_mode(gamma, h1)
        _, theta2 = _lmg_mode(gamma, h2)
        t, tau, m = cols["t"][rows], cols["tau"][rows], cols["M"][rows]
        _expect(errors, _close(t, np.linspace(0.0, periods * math.pi / delta1, n))
                & _close(tau, delta1 * t), f"{what}: time grid differs")
        _check_echo_rows(m, errors, what)
        _expect(errors, _close(m, single_mode_echo(0.5 * (theta2 - theta1), delta1, t)),
                f"{what}: M differs from the single-mode closed form")


def check_invocation(invocation, out_path: str, reference) -> list:
    """Failure messages for the files one CLI invocation wrote."""
    errors = []
    tables = {}
    for path in output_paths(invocation, out_path):
        try:
            tables[path] = read_csv(path)
        except (OSError, ValueError) as err:
            errors.append(f"{os.path.basename(path)}: unreadable: {err}")
    if errors:
        return errors
    for path, cols in tables.items():
        bad = [name for name, col in cols.items()
               if col.dtype.kind == "f" and not np.all(np.isfinite(col))]
        _expect(errors, not bad, f"{os.path.basename(path)}: non-finite values in {bad}")
        if reference is not None:
            key = os.path.basename(path)
            if key in reference:
                _compare_reference(key, cols, reference[key], errors)
            else:
                errors.append(f"{key}: no stored reference")
    cfg = invocation.config
    main, *rest = tables.values()
    try:
        if cfg["task"] == "converge":
            _check_converge(cfg, main, errors)
        elif cfg["task"] == "sweep":
            _check_sweep(cfg, main, errors)
        elif cfg["task"] == "collapse":
            _check_collapse(cfg, main, rest[0], errors)
        elif cfg["task"] == "echo" and cfg["model"] == "lmg":
            _check_lmg_echo(cfg, main, errors)
        else:
            errors.append(f"no check for task {cfg['task']!r}")
    except KeyError as err:
        errors.append(f"missing column {err}")
    return errors
