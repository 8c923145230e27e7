"""Run configuration: JSON document, schema validation, dotted overrides."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from importlib import resources

import jsonschema

from .errors import InputError


@dataclass(frozen=True)
class TimeGridOpts:
    periods: float = 1.0
    samples_per_period: int = 256


@dataclass(frozen=True)
class ExactOpts:
    n_atoms: int = 16
    n_boson: int | None = None
    include: bool = False
    max_dim: int = 200_000


@dataclass(frozen=True)
class ConvergeOpts:
    n_list: tuple = (8, 16, 32, 64, 128)
    target: str = "scaling"


@dataclass(frozen=True)
class OutputOpts:
    path: str = "results.csv"


@dataclass(frozen=True)
class RunConfig:
    model: str
    task: str
    omega: float = 1.0
    omega0: float = 1.0
    lmg_gamma: float = 0.0
    pairs: tuple = ()
    etas: tuple = ()
    scales: tuple = ()
    phases: tuple = ("normal",)
    time_grid: TimeGridOpts = field(default_factory=TimeGridOpts)
    exact: ExactOpts = field(default_factory=ExactOpts)
    converge: ConvergeOpts = field(default_factory=ConvergeOpts)
    output: OutputOpts = field(default_factory=OutputOpts)


def _schema() -> dict:
    text = resources.files("qptscale").joinpath(
        "schemas/runconfig.schema.json").read_text()
    return json.loads(text)


def _set_dotted(doc: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = doc
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise InputError(f"override path {dotted!r} crosses a non-object value")
    node[keys[-1]] = value


def _loads(text: str, where: str):
    """``json.loads`` refusing NaN, Infinity, -Infinity and numbers that
    overflow a float; text that is not JSON still raises JSONDecodeError."""
    bad = []

    def number(literal):
        value = float(literal)
        if not math.isfinite(value):
            bad.append(literal)
        return value

    doc = json.loads(text, parse_constant=bad.append, parse_float=number)
    if bad:
        raise InputError(f"{where}: non-finite number {bad[0]}")
    return doc


def apply_overrides(doc: dict, overrides) -> dict:
    """Apply KEY=VALUE overrides (dotted keys, JSON-parsed values)."""
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise InputError(f"override {item!r} must look like key=value")
        try:
            value = _loads(raw, f"override {item!r}")
        except json.JSONDecodeError:
            value = raw
        _set_dotted(doc, key.strip(), value)
    return doc


def validate_document(doc: dict) -> None:
    validator = jsonschema.Draft202012Validator(_schema())
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        where = "/".join(str(p) for p in err.absolute_path) or "(top level)"
        raise InputError(f"config error at {where}: {err.message}")


def parse_document(doc: dict) -> RunConfig:
    validate_document(doc)
    kwargs = dict(doc)
    if "pairs" in kwargs:
        kwargs["pairs"] = tuple((float(a), float(b)) for a, b in kwargs["pairs"])
    for name in ("etas", "scales", "phases"):
        if name in kwargs:
            kwargs[name] = tuple(kwargs[name])
    if "time_grid" in kwargs:
        kwargs["time_grid"] = TimeGridOpts(**kwargs["time_grid"])
    if "exact" in kwargs:
        kwargs["exact"] = ExactOpts(**kwargs["exact"])
    if "converge" in kwargs:
        sub = dict(kwargs["converge"])
        if "n_list" in sub:
            sub["n_list"] = tuple(sub["n_list"])
        kwargs["converge"] = ConvergeOpts(**sub)
    if "output" in kwargs:
        kwargs["output"] = OutputOpts(**kwargs["output"])
    return RunConfig(**kwargs)


def load_document(path: str) -> dict:
    """Read a UTF-8 JSON config file; parse errors carry line and column numbers."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = _loads(handle.read(), path)
    except UnicodeDecodeError as err:
        raise InputError(f"{path}: not UTF-8 ({err.reason} at byte {err.start})") from err
    except json.JSONDecodeError as err:
        raise InputError(
            f"{path}: line {err.lineno}, column {err.colno}: {err.msg}") from err
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top-level value must be an object")
    return doc


def config_hash(config: RunConfig) -> str:
    """Hash of the physics-relevant configuration.

    The output location is excluded so that reruns to a different path stay
    byte-identical in provenance.
    """
    doc = asdict(config)
    doc.pop("output", None)
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
