import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict

import pytest

import qptscale.dicke_exact
from qptscale import DickeParams, fidelity_exact, fidelity_gaussian, fidelity_scaling
from qptscale.cli import main, run
from qptscale.config import RunConfig, config_hash, parse_document
from qptscale.errors import InputError
from qptscale.lmg import LmgParams, gap
from qptscale.tables import read_table
from conftest import dicke_systems

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run_cli(args):
    return main(args)


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("dicke-fidelity", "dicke-echo", "dicke-converge",
                 "lmg-fidelity", "lmg-echo", "collapse", "sweep"):
        assert name in out


def test_fig1_config_reproduces_scaling_value(tmp_path):
    out = tmp_path / "fig1.csv"
    code = run_cli(["dicke-fidelity",
                    "--config", os.path.join(CONFIG_DIR, "fig1.json"),
                    "--output", str(out)])
    assert code == 0
    table = read_table(str(out))
    assert list(table.columns) == ["eta", "lambda1", "lambda2", "phase",
                                   "Lp_analytic", "Lp_scaling"]
    rows = {(round(e, 12), p): (a, s) for e, p, a, s in
            zip(table.columns["eta"], table.columns["phase"],
                table.columns["Lp_analytic"], table.columns["Lp_scaling"])}
    analytic, scaling = rows[(0.1, "normal")]
    assert scaling == pytest.approx(0.92437772965439573, abs=1e-12)
    assert scaling == pytest.approx(0.92437, abs=1e-4)
    assert abs(analytic - scaling) <= 1e-3
    assert table.provenance["package_version"]


def test_fig2_config_gap_strictly_decreasing(tmp_path):
    out = tmp_path / "fig2.csv"
    code = run_cli(["dicke-converge",
                    "--config", os.path.join(CONFIG_DIR, "fig2.json"),
                    "--set", "converge.n_list=[8,16,32]",
                    "--output", str(out)])
    assert code == 0
    table = read_table(str(out))
    assert list(table.columns) == ["N", "n_b", "LpN", "D"]
    gaps = table.columns["D"]
    assert gaps[0] > gaps[1] > gaps[2]
    assert float(table.provenance["reference"]) == pytest.approx(fidelity_scaling(0.1),
                                                                 abs=1e-12)
    assert table.columns["n_b"].tolist() == table.columns["N"].tolist() == [8, 16, 32]


def test_converge_degenerate_pair_gives_constant_zero(tmp_path):
    # equal couplings: Lp^N = 1 at every N, and eta = 1 puts the law at 1 too
    out = tmp_path / "deg.csv"
    assert run_cli(["dicke-converge", "--set", "pairs=[[0.4,0.4]]",
                    "--set", "converge.n_list=[4,8,12]", "--output", str(out)]) == 0
    table = read_table(str(out))
    assert table.columns["N"].tolist() == [4, 8, 12]
    assert all(lp == pytest.approx(1.0, abs=1e-12) for lp in table.columns["LpN"])
    assert all(d <= 1e-12 for d in table.columns["D"])


def test_converge_uses_the_stated_boson_cutoff(tmp_path):
    out = tmp_path / "nb.csv"
    assert run_cli(["dicke-converge", "--config", os.path.join(CONFIG_DIR, "fig2.json"),
                    "--set", "converge.n_list=[8,16]", "--set", "exact.n_boson=12",
                    "--output", str(out)]) == 0
    table = read_table(str(out))
    assert table.columns["n_b"].tolist() == [12, 12]
    assert table.columns["LpN"] == pytest.approx(
        [fidelity_exact(*dicke_systems(n, 12, 0.495, 0.45)) for n in (8, 16)], abs=1e-14)


# The "effective" reference is the shared-rotation Gaussian, not the model's
# analytic fidelity: the two differ at both points, also at omega == omega0.
@pytest.mark.parametrize("omega0,pair", [(1.0, [0.495, 0.45]), (2.0, [0.68, 0.6])],
                         ids=["fig2", "omega0-2"])
def test_converge_effective_reference_is_the_shared_rotation_gaussian(tmp_path, omega0,
                                                                     pair):
    out = tmp_path / "eff.csv"
    assert run_cli(["dicke-converge", "--set", f"omega0={omega0}", "--set", f"pairs=[{pair}]",
                    "--set", 'converge.target="effective"', "--set", "converge.n_list=[8,16]",
                    "--output", str(out)]) == 0
    reference = float(read_table(str(out)).provenance["reference"])
    p1, p2 = (DickeParams(1.0, omega0, coupling) for coupling in pair)
    assert reference == pytest.approx(fidelity_gaussian(p1, p2, shared_rotation=True),
                                      abs=1e-15)
    assert abs(reference - fidelity_gaussian(p1, p2)) > 1e-5


def test_lmg_fidelity_subcommand(tmp_path):
    cfg = write_config(tmp_path, {
        "etas": [0.01, 0.1], "scales": [1e-3], "phases": ["symmetric"],
        "output": {"path": str(tmp_path / "lmg.csv")},
    })
    assert run_cli(["lmg-fidelity", "--config", cfg]) == 0
    table = read_table(str(tmp_path / "lmg.csv"))
    for a, s in zip(table.columns["Lp_analytic"], table.columns["Lp_scaling"]):
        assert abs(a - s) <= 1e-3


def test_lmg_grid_defaults_to_an_lmg_phase(tmp_path):
    out = tmp_path / "lmg.csv"
    assert run_cli(["lmg-fidelity", "--set", "etas=[0.1]", "--set", "scales=[0.01]",
                    "--output", str(out)]) == 0
    assert read_table(str(out)).columns["phase"].tolist() == ["symmetric"]


def test_library_grid_defaults_to_the_model_first_phase(tmp_path):
    # run() on a document without phases grids the model's first phase, as
    # the CLI does
    lib, cli = tmp_path / "lib.csv", tmp_path / "cli.csv"
    run(parse_document({"model": "lmg", "task": "fidelity", "etas": [0.1],
                        "scales": [0.01], "output": {"path": str(lib)}}))
    assert run_cli(["lmg-fidelity", "--set", "etas=[0.1]", "--set", "scales=[0.01]",
                    "--output", str(cli)]) == 0
    lib_columns, cli_columns = (read_table(str(path)).columns for path in (lib, cli))
    assert {name: col.tolist() for name, col in lib_columns.items()} == {
        name: col.tolist() for name, col in cli_columns.items()}
    assert lib_columns["phase"].tolist() == ["symmetric"]


def test_lmg_echo_subcommand(tmp_path):
    out = tmp_path / "echo.csv"
    assert run_cli(["lmg-echo", "--set", "lmg_gamma=0", "--set", "etas=[0.1]",
                    "--set", "scales=[0.01]", "--set", 'phases=["symmetric","broken"]',
                    "--set", "time_grid.samples_per_period=64",
                    "--output", str(out)]) == 0
    table = read_table(str(out))
    assert list(table.columns) == ["pair", "eta", "h1", "h2", "t", "tau", "M"]
    cols = table.columns
    assert sorted(set(cols["pair"])) == [0, 1]
    for pair in (0, 1):
        assert cols["M"][cols["pair"] == pair][0] == 1.0
    for h1, t, tau, m in zip(cols["h1"], cols["t"], cols["tau"], cols["M"]):
        assert 0.0 <= m <= 1.0
        assert tau == gap(LmgParams(0.0, h1)) * t


@pytest.mark.parametrize("model", ["bogus", [1]], ids=["unknown", "unhashable"])
def test_unknown_model_is_usage_error(tmp_path, capsys, model):
    assert run_cli(["sweep", "--set", f"model={json.dumps(model)}", "--set", "etas=[0.1]",
                    "--set", "scales=[0.01]", "--output", str(tmp_path / "u.csv")]) == 2
    assert "model" in capsys.readouterr().err


def test_sweep_ratio_invariance(tmp_path):
    cfg = write_config(tmp_path, {
        "etas": [0.1], "scales": [1e-2, 1e-3],
        "output": {"path": str(tmp_path / "sweep.csv")},
    })
    assert run_cli(["sweep", "--config", cfg]) == 0
    table = read_table(str(tmp_path / "sweep.csv"))
    a = table.columns["Lp_analytic"]
    assert abs(a[0] - a[1]) <= 1e-3


def test_sweep_unit_ratio_is_exactly_one(tmp_path):
    cfg = write_config(tmp_path, {
        "etas": [1.0], "scales": [1e-2, 1e-1],
        "output": {"path": str(tmp_path / "one.csv")},
    })
    assert run_cli(["sweep", "--config", cfg]) == 0
    table = read_table(str(tmp_path / "one.csv"))
    assert all(v == 1.0 for v in table.columns["Lp_analytic"])
    assert all(v == 1.0 for v in table.columns["Lp_scaling"])


def test_sweep_with_exact_column(tmp_path):
    cfg = write_config(tmp_path, {
        "etas": [0.5], "scales": [0.2],
        "exact": {"n_atoms": 8, "include": True},
        "output": {"path": str(tmp_path / "ex.csv")},
    })
    assert run_cli(["sweep", "--config", cfg]) == 0
    table = read_table(str(tmp_path / "ex.csv"))
    assert "Lp_exact" in table.columns
    assert 0.0 <= table.columns["Lp_exact"][0] <= 1.0


def test_each_ground_state_solved_once_per_run(tmp_path, monkeypatch):
    # 2 etas x 2 scales: 8 ground states, 6 distinct (4 lambda1, 2 lambda2)
    solved = []
    original = qptscale.dicke_exact.ground_state_exact
    monkeypatch.setattr(qptscale.dicke_exact, "ground_state_exact",
                        lambda system: solved.append(system) or original(system))
    args = ["sweep", "--set", "etas=[0.1,0.3]", "--set", "scales=[1e-2,2e-2]",
            "--set", "exact.include=true", "--set", "exact.n_atoms=8",
            "--output", str(tmp_path / "s.csv")]
    assert run_cli(args) == 0
    assert len(solved) == len(set(solved)) == 6
    assert run_cli(args) == 0  # a new run solves afresh
    assert len(solved) == 12 and set(solved[6:]) == set(solved[:6])


def test_sweep_empty_etas_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"etas": [], "scales": [0.01]})
    assert run_cli(["sweep", "--config", cfg]) == 2
    assert "etas" in capsys.readouterr().err


def test_cross_phase_pair_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "pairs": [[0.51, 0.45]],
        "output": {"path": str(tmp_path / "x.csv")},
    })
    assert run_cli(["dicke-fidelity", "--config", cfg]) == 2
    assert "critical" in capsys.readouterr().err


def test_invalid_json_reports_line_number(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "model": "dicke",\n  "task": }\n')
    assert run_cli(["dicke-fidelity", "--config", str(path)]) == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("route,payload", [
    ("set", "time_grid.periods=Infinity"),
    ("set", "time_grid.periods=NaN"),
    ("set", "time_grid.periods=1e400"),
    ("set", "omega=Infinity"),
    ("file", b'{"etas": [0.1], "scales": [0.01], "time_grid": {"periods": Infinity}}'),
    ("file", b'{"etas": [0.1], "scales": [0.01], "time_grid": {"periods": NaN}}'),
    ("file", b'{"etas": [0.1], "scales": [0.01], "time_grid": {"periods": 1e400}}'),
    ("file", b'{"etas": [0.1], "scales": [0.01], "output": {"path": "\xff.csv"}}'),
], ids=["set-inf", "set-nan", "set-overflow", "set-ignored-key", "file-inf", "file-nan",
        "file-overflow", "file-not-utf8"])
def test_nonfinite_or_undecodable_input_is_usage_error(tmp_path, capsys, route, payload):
    out = tmp_path / "e.csv"
    if route == "set":
        args = [f"--set={item}" for item in ("etas=[0.1]", "scales=[0.01]", payload)]
    else:
        path = tmp_path / "cfg.json"
        path.write_bytes(payload)
        args = ["--config", str(path)]
    assert run_cli(["lmg-echo", *args, "--output", str(out)]) == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_override_value_that_only_starts_like_a_number_stays_a_string(tmp_path,
                                                                      monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(["lmg-fidelity", "--set", "etas=[0.1]", "--set", "scales=[0.01]",
                    "--set", "output.path=Infinity.csv"]) == 0
    assert (tmp_path / "Infinity.csv").exists()


def test_output_flag_over_non_object_output_is_usage_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run_cli(["sweep", "--set", "etas=[0.1]", "--set", "scales=[0.01]",
                    "--set", "output=3", "--output", str(out)]) == 2
    assert "output.path" in capsys.readouterr().err
    assert not out.exists()


def test_empty_output_flag_is_usage_error(tmp_path, capsys, monkeypatch):
    # an empty --output is refused like an empty output.path, and an empty
    # --config like a missing file, not dropped in favour of the defaults
    monkeypatch.chdir(tmp_path)
    assert run_cli(["dicke-fidelity", "--set", "pairs=[[0.45,0.4]]",
                    "--output", ""]) == 2
    assert "output.path" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert run_cli(["dicke-fidelity", "--config", "", "--set", "pairs=[[0.45,0.4]]"]) == 2
    assert "No such file" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_schema_violation_reports_path(tmp_path, capsys):
    cfg = write_config(tmp_path, {"etas": [0.1], "scales": [0.01],
                                  "omega": -1.0})
    assert run_cli(["dicke-fidelity", "--config", cfg]) == 2
    assert "omega" in capsys.readouterr().err


_BASE_DOC = {"model": "dicke", "task": "sweep"}


# One document per rule the run config enforces; each refusal names its key.
# Each case keeps its own id, so dropping a rule renames no other case.
_REFUSALS = {
    "doc0-omega": (dict(_BASE_DOC, omega=0), "omega"),
    "doc1-omega": (dict(_BASE_DOC, omega=-1.0), "omega"),
    "doc2-omega": (dict(_BASE_DOC, omega=True), "omega"),
    "doc3-omega0": (dict(_BASE_DOC, omega0=0.0), "omega0"),
    "doc4-omega0": (dict(_BASE_DOC, omega0=True), "omega0"),
    "doc5-lmg_gamma": (dict(_BASE_DOC, lmg_gamma=1), "lmg_gamma"),
    "doc6-pairs": (dict(_BASE_DOC, pairs=[[0.45, 0.4, 0.3]]), "pairs"),
    "doc7-etas": (dict(_BASE_DOC, etas=[0.0]), "etas"),
    "doc8-scales": (dict(_BASE_DOC, scales=[0]), "scales"),
    "doc9-phases": (dict(_BASE_DOC, phases=[]), "phases"),
    "doc10-phases": (dict(_BASE_DOC, phases=["sideways"]), "phases"),
    "doc11-samples_per_period": (dict(_BASE_DOC, time_grid={"samples_per_period": 7}),
                                 "samples_per_period"),
    "doc12-max_dim": (dict(_BASE_DOC, exact={"max_dim": 15}), "max_dim"),
    "doc13-n_boson": (dict(_BASE_DOC, exact={"n_boson": 1}), "n_boson"),
    "doc14-include": (dict(_BASE_DOC, exact={"include": 1}), "include"),
    "doc15-n_list": (dict(_BASE_DOC, converge={"n_list": []}), "n_list"),
    "doc16-target": (dict(_BASE_DOC, converge={"target": "exact"}), "target"),
    "doc17-path": (dict(_BASE_DOC, output={"path": ""}), "path"),
    "doc18-period": (dict(_BASE_DOC, time_grid={"period": 1.0}), "period"),
    "doc19-n_atom": (dict(_BASE_DOC, exact={"n_atom": 8}), "n_atom"),
    "doc20-nlist": (dict(_BASE_DOC, converge={"nlist": [8]}), "nlist"),
    "doc21-file": (dict(_BASE_DOC, output={"file": "a.csv"}), "file"),
    "doc22-exact": (dict(_BASE_DOC, exact=8), "exact"),
    "doc23-model": ({"task": "sweep"}, "model"),
    "doc24-task": ({"model": "dicke"}, "task"),
    "doc25-n_list": (dict(_BASE_DOC, converge={"n_list": [16, 8]}), "n_list"),
    "doc26-n_list": (dict(_BASE_DOC, converge={"n_list": [8, 8]}), "n_list"),
    "doc27-phases": (dict(_BASE_DOC, phases="normal"), "phases"),
    "doc28-omega": (dict(_BASE_DOC, omega=10**400), "omega"),
    "doc29-etas": (dict(_BASE_DOC, etas=[0.5, 10**400]), "etas"),
}


@pytest.mark.parametrize("doc,key", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_parse_document_refuses_each_rule_naming_the_key(doc, key):
    with pytest.raises(InputError, match=key):
        parse_document(doc)


def test_float_fields_parse_to_floats_and_integer_fields_stay_integers():
    as_int = parse_document(dict(_BASE_DOC, omega=1, omega0=2, lmg_gamma=0, pairs=[[1, 2]],
                                 etas=[1], scales=[3], time_grid={"periods": 2},
                                 exact={"n_atoms": 8}, converge={"n_list": [8]}))
    as_float = parse_document(dict(_BASE_DOC, omega=1.0, omega0=2.0, lmg_gamma=0.0,
                                   pairs=[[1.0, 2.0]], etas=[1.0], scales=[3.0],
                                   time_grid={"periods": 2.0}, exact={"n_atoms": 8},
                                   converge={"n_list": [8]}))
    assert as_int == as_float and config_hash(as_int) == config_hash(as_float)
    assert {type(v) for v in (as_int.omega, as_int.omega0, as_int.lmg_gamma, *as_int.pairs[0],
                              *as_int.etas, *as_int.scales, as_int.time_grid.periods)} == {float}
    assert {type(v) for v in (as_int.exact.n_atoms, *as_int.converge.n_list)} == {int}


# exact.max_dim is no longer a key at all, and is refused as unknown
@pytest.mark.parametrize("override", [
    "time_grid.samples_per_period=64.0", "exact.n_atoms=8.0", "exact.n_boson=8.0",
    "exact.max_dim=1e5", "converge.n_list=[8.0]", "converge.n_list=[1]"],
    ids=["samples_per_period", "n_atoms", "n_boson", "max_dim", "n_list", "n_list-one"])
def test_sizes_are_json_integers_in_range(tmp_path, capsys, override):
    out = tmp_path / "i.csv"
    key = override.partition("=")[0]
    assert run_cli(["dicke-echo", "--set", "pairs=[[0.45,0.4]]", "--set", "exact.n_atoms=8",
                    "--set", override, "--output", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


# the basis cap is the constant dicke_exact.MAX_DIM, not a config key
@pytest.mark.parametrize("doc,key", [
    ({"omgea": 1.0}, "omgea"), ({"threads": 2}, "threads"),
    ({"exact": {"max_dim": 100000}}, "exact.max_dim")],
    ids=["omgea", "threads", "max_dim"])
def test_unknown_key_rejected(tmp_path, capsys, doc, key):
    cfg = write_config(tmp_path, dict(doc, etas=[0.1], scales=[0.01]))
    assert run_cli(["dicke-fidelity", "--config", cfg]) == 2
    assert key in capsys.readouterr().err


def test_threads_flag_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--threads", "2", "--set", "etas=[0.1]",
              "--set", "scales=[0.01]", "--output", str(tmp_path / "t.csv")])
    assert exc.value.code == 2
    assert not (tmp_path / "t.csv").exists()


def test_model_conflict_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": "lmg", "etas": [0.1], "scales": [0.01]})
    assert run_cli(["dicke-fidelity", "--config", cfg]) == 2
    assert "conflict" in capsys.readouterr().err


@pytest.mark.parametrize("override", ['model="lmg"', 'task="echo"'])
def test_override_conflicting_with_subcommand_rejected(tmp_path, capsys, override):
    # model and task are settled after the overrides, so --set is held to the
    # subcommand as a config file is
    assert run_cli(["dicke-fidelity", "--set", override, "--set", "etas=[0.1]",
                    "--set", "scales=[0.01]", "--output", str(tmp_path / "f.csv")]) == 2
    assert "conflicts with subcommand" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_resource_cap_exit_code(tmp_path, capsys):
    # every exact path, echoes included, refuses a basis above MAX_DIM: N = 447
    # with n_b = N gives 447 * 448 = 200,256 states, refused before any array
    grid = {"etas": [0.5], "scales": [0.2]}
    for command, doc in (
            ("dicke-converge", {"pairs": [[0.495, 0.45]], "converge": {"n_list": [447]}}),
            ("sweep", dict(grid, exact={"include": True, "n_atoms": 447})),
            ("dicke-echo", {"pairs": [[0.45, 0.4]], "exact": {"n_atoms": 447}}),
            ("collapse", dict(grid, exact={"include": True, "n_atoms": 447}))):
        cfg = write_config(tmp_path, dict(doc, output={"path": str(tmp_path / "r.csv")}))
        assert run_cli([command, "--config", cfg]) == 3, command
        assert "cap" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("grid", [
    ["time_grid.samples_per_period=1000000000000000000000000000000"],
    ["time_grid.periods=1e300", "time_grid.samples_per_period=10000000000"],
], ids=["too-many-samples", "infinite-samples"])
def test_time_grid_cap_exit_code(tmp_path, capsys, grid):
    out = tmp_path / "e.csv"
    args = ["lmg-echo", "--set", "etas=[0.1]", "--set", "scales=[0.01]"]
    for item in grid:
        args += ["--set", item]
    assert run_cli(args + ["--output", str(out)]) == 3
    assert "cap" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,doc", [
    ("sweep", {"etas": [0.5], "scales": [0.2], "phases": ["super"],
               "exact": {"n_atoms": 8, "include": True}}),
    ("collapse", {"etas": [0.5], "scales": [0.2], "phases": ["super"],
                  "exact": {"n_atoms": 8, "include": True}}),
    ("dicke-echo", {"pairs": [[0.55, 0.6]], "exact": {"n_atoms": 8}}),
    ("dicke-converge", {"pairs": [[0.55, 0.6]], "converge": {"n_list": [8]}}),
], ids=["sweep-doc0", "collapse-doc1", "dicke-echo-doc2", "dicke-converge-doc3"])
def test_super_radiant_exact_is_usage_error(tmp_path, capsys, command, doc):
    cfg = write_config(tmp_path, dict(doc, output={"path": str(tmp_path / "s.csv")}))
    assert run_cli([command, "--config", cfg]) == 2
    assert "critical" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_defaults_written_out_parse_back():
    # every key the dataclasses declare, at its default: each passes its rule
    default = RunConfig("dicke", "sweep")
    assert parse_document(json.loads(json.dumps(asdict(default)))) == default


def test_config_hash_ignores_output():
    base = {"model": "dicke", "task": "sweep", "etas": [0.1], "scales": [0.01]}
    a = parse_document(dict(base))
    b = parse_document(dict(base, output={"path": "elsewhere.csv"}))
    assert config_hash(a) == config_hash(b)


@pytest.mark.parametrize("doc", [
    {"model": "dicke", "task": "sweep"},
    {"model": "dicke", "task": "converge", "omega": 2.0, "omega0": 0.5,
     "pairs": [[0.45, 0.4], [0.3, 0.2]], "etas": [0.1], "scales": [0.01, 0.001],
     "phases": ["super"], "exact": {"n_atoms": 32, "n_boson": 40, "include": True},
     "converge": {"n_list": [8, 16], "target": "effective"},
     "time_grid": {"periods": 2.0, "samples_per_period": 128},
     "output": {"path": "x.csv"}},
], ids=["default", "full"])
def test_config_hash_is_sha256_of_the_canonical_config(doc):
    # the digest the provenance line has always carried, whichever module computes it
    cfg = parse_document(doc)
    canonical = asdict(cfg)
    del canonical["output"]
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    assert config_hash(cfg) == hashlib.sha256(text.encode()).hexdigest()


def test_config_hash_falls_back_to_hashlib_without_a_builtin_sha256():
    probe = ('import sys; sys.modules["_sha2"] = sys.modules["_sha256"] = None\n'
             'from qptscale.config import RunConfig, config_hash\n'
             'print(config_hash(RunConfig("dicke", "sweep")))')
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC_DIR))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == config_hash(RunConfig("dicke", "sweep"))


@pytest.mark.parametrize("command,doc,needle", [
    ("collapse", {"etas": [0.01], "scales": [0.01], "phases": ["symmetric"]},
     "symmetric"),
    ("collapse", {"etas": [0.01], "scales": [0.01], "phases": ["normal", "super"]},
     "one phase"),
    ("collapse", {"etas": [0.01], "scales": [0.01], "pairs": [[0.45, 0.4]]},
     "pairs"),
    ("sweep", {"etas": [0.1], "scales": [0.01], "pairs": [[0.45, 0.4]]}, "pairs"),
    ("sweep", {"model": "lmg", "etas": [0.1], "scales": [0.01],
               "phases": ["symmetric"], "exact": {"include": True}}, "exact"),
    ("dicke-converge", {"pairs": [[0.495, 0.45], [0.49, 0.4]],
                        "converge": {"n_list": [8]}}, "one parameter point"),
    ("dicke-fidelity", {}, "no parameter points"),
    ("dicke-echo", {"pairs": [[0.5, 0.4]]}, "off the critical point"),
    ("collapse", {"model": "lmg", "etas": [0.1], "scales": [0.01],
                  "phases": ["symmetric"]}, "not defined for model"),
    ("lmg-fidelity", {"pairs": [[1.0, 1.1]]}, "critical point"),
    # lambda_c * (1 - 1e-17 * 0.001) rounds onto lambda_c
    ("collapse", {"etas": [1e-17], "scales": [0.001]}, "off the critical point"),
    ("sweep", {"etas": [1e-17], "scales": [0.001]}, "critical point"),
    ("dicke-fidelity", {"pairs": [[0.45, 0.4]], "phases": ["broken"]},
     "not a phase of model"),
    ("dicke-converge", {"pairs": [[0.495, 0.45]], "etas": [0.1],
                        "converge": {"n_list": [8]}}, "etas"),
    ("dicke-fidelity", {"pairs": [[0.45, 0.4]], "phases": ["super"]}, "phases"),
    # n_boson defaults to N = 1, one boson level: the refusal names the key
    # behind the default, not a field the user never set
    ("sweep", {"etas": [0.1], "scales": [0.1], "exact": {"include": True, "n_atoms": 1}},
     "exact.n_boson defaults to N = 1"),
], ids=["collapse-unknown-phase", "collapse-two-phases", "collapse-pairs",
        "sweep-pairs", "sweep-lmg-exact", "converge-two-points", "fidelity-no-points",
        "echo-at-critical", "collapse-lmg", "lmg-fidelity-at-critical",
        "collapse-rounds-onto-critical", "sweep-rounds-onto-critical",
        "fidelity-pairs-unknown-phase", "converge-half-grid", "fidelity-pairs-phases",
        "sweep-default-cutoff-too-small"])
def test_ignored_or_ambiguous_input_is_usage_error(tmp_path, capsys, command, doc,
                                                   needle):
    cfg = write_config(tmp_path, dict(doc, output={"path": str(tmp_path / "r.csv")}))
    assert run_cli([command, "--config", cfg]) == 2
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_collapse_emits_series_and_summary(tmp_path):
    out = tmp_path / "c.csv"
    code = run_cli(["collapse",
                    "--config", os.path.join(CONFIG_DIR, "fig3.json"),
                    "--set", "time_grid.samples_per_period=64",
                    "--output", str(out)])
    assert code == 0
    series = read_table(str(out))
    summary = read_table(str(tmp_path / "c_summary.csv"))
    assert set(series.columns) == {"eta", "kind", "scale", "t", "tau", "M"}
    assert all(s <= 1e-4 for s in summary.columns["spread"])


@pytest.mark.parametrize("args,as_int,as_float", [
    (["sweep", "--set", "scales=[0.1]"], "etas=[1,0.5]", "etas=[1.0,0.5]"),
    (["dicke-fidelity", "--set", "pairs=[[0.45,0.4]]"], "omega=1", "omega=1.0"),
], ids=["sweep-etas", "dicke-fidelity-omega"])
def test_int_and_float_spellings_are_one_config(tmp_path, args, as_int, as_float):
    # a float setting parses to a float: one config, one hash, one file
    for name, setting in (("int.csv", as_int), ("float.csv", as_float)):
        assert run_cli([*args, "--set", setting, "--output", str(tmp_path / name)]) == 0
    assert (tmp_path / "int.csv").read_bytes() == (tmp_path / "float.csv").read_bytes()


@pytest.mark.parametrize("include", [False, True], ids=["analytic", "exact"])
def test_collapse_names_the_basis_only_with_exact_echoes(tmp_path, include):
    out = tmp_path / "c.csv"
    assert run_cli(["collapse", "--config", os.path.join(CONFIG_DIR, "fig3.json"),
                    "--set", "time_grid.samples_per_period=16",
                    "--set", f"exact.include={str(include).lower()}",
                    "--set", "exact.n_atoms=8", "--output", str(out)]) == 0
    for path in (out, tmp_path / "c_summary.csv"):
        provenance = read_table(str(path)).provenance
        assert provenance["exact_included"] == str(include)
        if include:
            assert (provenance["n_atoms"], provenance["n_boson"]) == ("8", "8")
        else:
            assert "n_atoms" not in provenance and "n_boson" not in provenance


def test_dicke_echo_subcommand(tmp_path):
    cfg = write_config(tmp_path, {
        "pairs": [[0.45, 0.4]],
        "exact": {"n_atoms": 6, "n_boson": 8},
        "time_grid": {"periods": 0.5, "samples_per_period": 32},
        "output": {"path": str(tmp_path / "echo.csv")},
    })
    assert run_cli(["dicke-echo", "--config", cfg]) == 0
    table = read_table(str(tmp_path / "echo.csv"))
    assert table.columns["M"][0] == pytest.approx(1.0, abs=1e-12)
    assert max(table.columns["M"]) <= 1.0 + 1e-10


@pytest.mark.parametrize("command,args", [
    ("collapse", ["--config", os.path.join(CONFIG_DIR, "fig3.json"),
                  "--set", "time_grid.samples_per_period=64",
                  "--set", "exact.include=true", "--set", "exact.n_atoms=8"]),
    ("dicke-converge", ["--config", os.path.join(CONFIG_DIR, "fig2.json"),
                        "--set", "converge.n_list=[8,16]"]),
])
def test_reruns_are_byte_identical(tmp_path, command, args):
    for name in ("a.csv", "b.csv"):
        assert run_cli([command, *args, "--output", str(tmp_path / name)]) == 0
    first = sorted(tmp_path.glob("a*.csv"))  # collapse adds a_summary.csv
    assert len(first) == len(list(tmp_path.glob("b*.csv"))) >= 1
    for path in first:
        assert path.read_bytes() == (tmp_path / ("b" + path.name[1:])).read_bytes()


_MODEL_PARAMETERS = {"dicke": {"omega": "1.0", "omega0": "1.0", "lambda_c": "0.5"},
                     "lmg": {"gamma": "0.0"}}


@pytest.mark.parametrize("args,exact,basis", [
    (["dicke-converge", "--config", os.path.join(CONFIG_DIR, "fig2.json"),
      "--set", "converge.n_list=[8]"], True, False),  # N is a column
    (["dicke-echo", "--set", "pairs=[[0.45,0.4]]", "--set", "exact.n_atoms=8"], True, True),
    (["collapse", "--config", os.path.join(CONFIG_DIR, "fig3.json"),
      "--set", "time_grid.samples_per_period=16",
      "--set", "exact.include=true", "--set", "exact.n_atoms=8"], True, True),
    (["sweep", "--set", "etas=[0.1]", "--set", "scales=[1e-2]",
      "--set", "exact.include=true", "--set", "exact.n_atoms=8"], True, True),
    (["collapse", "--config", os.path.join(CONFIG_DIR, "fig3.json"),
      "--set", "time_grid.samples_per_period=16"], False, False),
    (["sweep", "--set", "etas=[0.1]", "--set", "scales=[1e-2]"], False, False),
    (["lmg-echo", "--set", "etas=[0.1]", "--set", "scales=[0.01]"], False, False),
], ids=["dicke-converge", "dicke-echo", "collapse-exact", "sweep-exact",
        "collapse", "sweep", "lmg-echo"])
def test_exact_tables_record_solver_tolerances(tmp_path, args, exact, basis):
    assert run_cli([*args, "--output", str(tmp_path / "out.csv")]) == 0
    paths = list(tmp_path.glob("out*.csv"))  # collapse adds out_summary.csv
    assert paths
    for path in paths:
        provenance = read_table(str(path)).provenance
        if exact:
            assert provenance["ground_tol"] == "1e-11"
            assert provenance["survival_tol"] == "1e-12"
        else:
            assert "ground_tol" not in provenance and "survival_tol" not in provenance
        # every table states the model parameters its numbers depend on
        assert _MODEL_PARAMETERS[provenance["model"]].items() <= provenance.items()
        if basis:
            assert (provenance["n_atoms"], provenance["n_boson"]) == ("8", "8")
        else:
            assert "n_atoms" not in provenance and "n_boson" not in provenance


_GRID = ["--set", "etas=[0.1]", "--set", "scales=[0.01]"]
_FIG3 = ["--config", os.path.join(CONFIG_DIR, "fig3.json"),
         "--set", "time_grid.samples_per_period=16", "--set", "exact.n_atoms=8"]
_DICKE_PARAMS = {"lambda1": "energy", "lambda2": "energy"}
_SWEEP_LABELS = {"model": "label", "phase": "label"}


@pytest.mark.parametrize("args,units", [
    (["dicke-fidelity", *_GRID], {"out": {**_DICKE_PARAMS, "phase": "label"}}),
    (["lmg-fidelity", *_GRID], {"out": {"h1": "1", "h2": "1", "phase": "label"}}),
    (["dicke-converge", "--config", os.path.join(CONFIG_DIR, "fig2.json"),
      "--set", "converge.n_list=[8]"], {"out": {}}),
    (["dicke-echo", "--set", "pairs=[[0.45,0.4]]", "--set", "exact.n_atoms=8"],
     {"out": {**_DICKE_PARAMS, "t": "1/energy"}}),
    (["lmg-echo", *_GRID], {"out": {"h1": "1", "h2": "1", "t": "1/energy"}}),
    *[(["collapse", *_FIG3, "--set", f"exact.include={include}"],
       {"out": {"kind": "label", "t": "1/energy"},
        "out_summary": {"kind": "label", "trend_decreasing": "label"}})
      for include in ("false", "true")],
    *[(["sweep", *_GRID, "--set", f"exact.include={include}", "--set", "exact.n_atoms=8"],
       {"out": {**_SWEEP_LABELS, "param1": "energy", "param2": "energy"}})
      for include in ("false", "true")],
    (["sweep", *_GRID, "--set", 'model="lmg"'],
     {"out": {**_SWEEP_LABELS, "param1": "1", "param2": "1"}}),
], ids=["dicke-fidelity", "lmg-fidelity", "dicke-converge", "dicke-echo", "lmg-echo",
        "collapse", "collapse-exact", "sweep", "sweep-exact", "lmg-sweep"])
def test_every_column_unit_follows_from_the_column(tmp_path, args, units):
    # a str column is a label, the model's parameter columns carry its unit
    # (sweep's param1 and param2 included), t is 1/energy, the rest is "1"
    assert run_cli([*args, "--output", str(tmp_path / "out.csv")]) == 0
    assert sorted(path.stem for path in tmp_path.glob("*.csv")) == sorted(units)
    for stem, named in units.items():
        table = read_table(str(tmp_path / (stem + ".csv")))
        assert table.units == {name: named.get(name, "1") for name in table.columns}
        for name, column in table.columns.items():
            assert (column.dtype.kind == "U") == (table.units[name] == "label"), name


def test_solver_failure_exits_4(tmp_path, capsys, monkeypatch):
    # a Krylov cap below the block's need makes lanczos_ground raise NumericError
    monkeypatch.setattr("qptscale.linalg.KRYLOV_MAX_STEPS", 4)
    out = tmp_path / "d.csv"
    assert run_cli(["dicke-converge", "--config", os.path.join(CONFIG_DIR, "fig2.json"),
                    "--set", "converge.n_list=[8]", "--output", str(out)]) == 4
    assert capsys.readouterr().err.startswith("numeric error:")
    assert not out.exists()


# Lp_analytic at omega / omega0 = 1e7, 1e8 and 1e20, where the root formula
# for e1 cancels: fidelity_gaussian's formula evaluated in 60-digit mpmath at
# the couplings the run writes (1579.5576912541055 and 1565.3274417833479 at
# 1e7; 0.999 and 0.99 lambda_c at 1e8 and 1e20)
_LP_ANALYTIC_60 = {1e7: 0.92464841709833344761903628,
                   1e8: 0.92464841710740547905205252,
                   1e20: 0.92464841710841335829470686}


# short of overflow the row is written at omega / omega0 up to 1e20, and right
@pytest.mark.parametrize("omega", [1e7, 1e8, 1e20])
def test_extreme_frequency_ratio_fidelity_written(tmp_path, omega):
    out = tmp_path / "g.csv"
    assert run_cli(["dicke-fidelity", "--set", f"omega={omega}", "--set", "etas=[0.1]",
                    "--set", "scales=[0.01]", "--output", str(out)]) == 0
    lp = read_table(str(out)).columns["Lp_analytic"]
    assert lp.tolist() == [pytest.approx(_LP_ANALYTIC_60[omega], rel=1e-14)]


# omega very many orders of magnitude above or below omega0 overflows, or
# underflows (e1 e2)^2: exit 4 and no file
@pytest.mark.parametrize("omega", [1e160, 1e100, 1e-170])
def test_gaussian_analytics_failure_exits_4(tmp_path, capsys, omega):
    out = tmp_path / "g.csv"
    assert run_cli(["dicke-fidelity", "--set", f"omega={omega}", "--set", "etas=[0.1]",
                    "--set", "scales=[0.01]", "--output", str(out)]) == 4
    assert capsys.readouterr().err.startswith("numeric error:")
    assert not out.exists()


def test_lmg_gap_overflow_exits_4(tmp_path, capsys):
    # T V overflows to inf at h ~ 1e300: a numeric failure, not a usage error
    out = tmp_path / "l.csv"
    assert run_cli(["lmg-echo", "--set", "etas=[0.1]", "--set", "scales=[1e300]",
                    "--output", str(out)]) == 4
    assert capsys.readouterr().err.startswith("numeric error:")
    assert not out.exists()


def test_effective_reference_written_where_e1_cancels(tmp_path):
    # at omega / omega0 = 1e8, where the root formula for e1 cancels, the
    # shared-rotation reference is written; 60-digit mpmath gives
    # 0.92464841710841335819, 8.6e-17 from the written float.  LpN and D are not pinned: the
    # Lanczos residual bound GROUND_TOL |A| ~ 8e-3 is not small against e1
    out = tmp_path / "g.csv"
    assert run_cli(["dicke-converge", "--set", "omega=1e8", "--set", "etas=[0.1]",
                    "--set", "scales=[0.01]", "--set", 'converge.target="effective"',
                    "--set", "converge.n_list=[8]", "--output", str(out)]) == 0
    reference = float(read_table(str(out)).provenance["reference"])
    assert reference == pytest.approx(0.92464841710841335819, rel=1e-15)


_IMPORT_PROBE = """\
import json, sys
from qptscale.cli import main, run
codes = [main(args) for args in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m in sys.modules
                                if m.split(".")[0] in ("scipy", "jsonschema"))]))
"""


_PROBE_RUNS = {
    "analytic": [
        ["lmg-echo", "--set", "etas=[0.1]", "--set", "scales=[0.01]"],
        ["collapse", "--config", os.path.join(CONFIG_DIR, "fig3.json"),
         "--set", "time_grid.samples_per_period=64"],
        ["dicke-fidelity", "--config", os.path.join(CONFIG_DIR, "fig1.json")],
        ["lmg-fidelity", "--set", "etas=[0.01,0.1]", "--set", "scales=[1e-3]"],
        ["sweep", "--set", "etas=[0.1]", "--set", "scales=[1e-2,1e-3]"]],
    "dicke-echo": [["dicke-echo", "--set", "pairs=[[0.45,0.4]]", "--set", "exact.n_atoms=8"]],
    "dicke-converge": [["dicke-converge", "--config", os.path.join(CONFIG_DIR, "fig2.json"),
                        "--set", "converge.n_list=[8,16]"]],
    "collapse-exact": [["collapse", "--config", os.path.join(CONFIG_DIR, "fig3.json"),
                        "--set", "time_grid.samples_per_period=64",
                        "--set", "exact.include=true", "--set", "exact.n_atoms=8"]],
    "sweep-exact": [["sweep", "--set", "etas=[0.1]", "--set", "scales=[1e-2,1e-3]",
                     "--set", "exact.include=true", "--set", "exact.n_atoms=8"]],
}


def _run_probe(probe, runs, tmp_path):
    runs = [[*args, "--output", str(tmp_path / f"{i}.csv")] for i, args in enumerate(runs)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.abspath(SRC_DIR), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe, json.dumps(runs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return runs, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("runs", _PROBE_RUNS.values(), ids=_PROBE_RUNS.keys())
def test_no_task_loads_scipy(tmp_path, runs):
    runs, (codes, heavy_modules) = _run_probe(_IMPORT_PROBE, runs, tmp_path)
    assert codes == [0] * len(runs)
    assert heavy_modules == []


_OPENSSL_PROBE = """\
import json, sys
from qptscale.cli import main
codes = [main(args) for args in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted({"_hashlib", "_ssl", "hmac", "secrets"} & set(sys.modules))]))
"""


# the config hash and the temp-file name need no OpenSSL, whose libcrypto
# would be a few MB of every run's resident memory
@pytest.mark.parametrize("runs", _PROBE_RUNS.values(), ids=_PROBE_RUNS.keys())
def test_no_task_loads_openssl(tmp_path, runs):
    runs, (codes, openssl_modules) = _run_probe(_OPENSSL_PROBE, runs, tmp_path)
    assert codes == [0] * len(runs)
    assert openssl_modules == []


_NO_SCIPY_PROBE = """\
import json, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from qptscale.cli import main
print(json.dumps([main(args) for args in json.loads(sys.argv[1])]))
"""


def test_every_task_runs_without_scipy(tmp_path):
    all_runs = [args for runs in _PROBE_RUNS.values() for args in runs]
    runs, codes = _run_probe(_NO_SCIPY_PROBE, all_runs, tmp_path)
    assert codes == [0] * len(runs)
