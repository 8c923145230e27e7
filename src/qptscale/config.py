"""Run configuration: JSON document, validation against the dataclasses,
dotted overrides."""

from __future__ import annotations

import json
import math
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass

from .errors import InputError

# SHA-256 from CPython's builtin module, the one hashlib itself falls back
# to: importing hashlib maps OpenSSL's libcrypto (~3.4 MB resident) into
# every CLI run for this one small digest
try:
    from _sha2 import sha256 as _sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # 3.10, 3.11
    except ImportError:
        from hashlib import sha256 as _sha256


def _number(value) -> bool:
    # JSON true/false arrive as bool, a subclass of int; they are not numbers.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _positive():
    return "a number > 0", lambda v: _number(v) and v > 0


def _at_least(n: int):
    return f"an integer >= {n}", lambda v: _number(v) and isinstance(v, int) and v >= n


def _one_of(*choices):
    return "one of " + ", ".join(map(repr, choices)), lambda v: v in choices


def _list_of(rule, non_empty: bool = False):
    text, test = rule
    return (("a non-empty list" if non_empty else "a list") + f", each item {text}",
            lambda v: isinstance(v, list) and (len(v) > 0 or not non_empty)
            and all(map(test, v)))


def _or_null(rule):
    text, test = rule
    return "null or " + text, lambda v: v is None or test(v)


def _setting(rule, default=MISSING):
    """A config field with its default and its rule: the pair (text, test)
    that says what a value given for it must be."""
    return field(default=default, metadata={"rule": rule})


@dataclass(frozen=True)
class TimeGridOpts:
    periods: float = _setting(_positive(), 1.0)
    samples_per_period: int = _setting(_at_least(8), 256)


@dataclass(frozen=True)
class ExactOpts:
    n_atoms: int = _setting(_at_least(1), 16)
    n_boson: int | None = _setting(_or_null(_at_least(2)), None)
    include: bool = _setting(("true or false", lambda v: isinstance(v, bool)), False)


@dataclass(frozen=True)
class ConvergeOpts:
    # n_boson defaults to N, and a truncation needs two boson levels
    n_list: tuple[int, ...] = _setting(
        ("a non-empty strictly ascending list, each item an integer >= 2",
         lambda v: _list_of(_at_least(2), non_empty=True)[1](v) and v == sorted(set(v))),
        (8, 16, 32, 64, 128))
    target: str = _setting(_one_of("effective", "scaling"), "scaling")


@dataclass(frozen=True)
class OutputOpts:
    path: str = _setting(("a non-empty string", lambda v: isinstance(v, str) and v != ""),
                         "results.csv")


@dataclass(frozen=True)
class RunConfig:
    model: str = _setting(_one_of("dicke", "lmg"))
    task: str = _setting(_one_of("fidelity", "echo", "converge", "collapse", "sweep"))
    omega: float = _setting(_positive(), 1.0)
    omega0: float = _setting(_positive(), 1.0)
    lmg_gamma: float = _setting(
        ("a number in [0, 1)", lambda v: _number(v) and 0 <= v < 1), 0.0)
    pairs: tuple[tuple[float, float], ...] = _setting(
        _list_of(("a pair of numbers", lambda v: isinstance(v, list)
                  and len(v) == 2 and all(map(_number, v)))), ())
    etas: tuple[float, ...] = _setting(_list_of(_positive()), ())
    scales: tuple[float, ...] = _setting(_list_of(_positive()), ())
    phases: tuple[str, ...] | None = _setting(  # None: the model's first phase
        _or_null(_list_of(_one_of("normal", "super", "symmetric", "broken"), non_empty=True)),
        None)
    time_grid: TimeGridOpts = field(default_factory=TimeGridOpts)
    exact: ExactOpts = field(default_factory=ExactOpts)
    converge: ConvergeOpts = field(default_factory=ConvergeOpts)
    output: OutputOpts = field(default_factory=OutputOpts)


def _floats(hint) -> bool:
    """Whether the numbers of a field of type ``hint`` are floats."""
    return hint is float or any(map(_floats, typing.get_args(hint)))


def _frozen(value, floats: bool):
    """Lists become tuples, and with ``floats`` every number a float, so
    that 1 and 1.0 give one config."""
    if isinstance(value, list):
        return tuple(_frozen(item, floats) for item in value)
    return float(value) if floats else value


def _build(cls, doc, where: str = ""):
    """``cls`` from the object ``doc`` found at dotted path ``where``: every
    field without a default must be given, every key must be a field, and
    every value must pass its field's rule; lists become tuples, and the
    numbers of a float field floats."""
    if not isinstance(doc, dict):
        raise InputError(f"config error at {where or '(top level)'}: {doc!r} is not an object")
    prefix = where and where + "."
    specs = {spec.name: spec for spec in fields(cls)}
    for name, spec in specs.items():
        if name not in doc and spec.default is spec.default_factory is MISSING:
            raise InputError(f"config error at {prefix + name}: required key is missing")
    types = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in doc.items():
        path = prefix + key
        if key not in specs:
            raise InputError(f"config error at {path}: unknown key")
        if is_dataclass(types[key]):
            kwargs[key] = _build(types[key], value, path)
            continue
        text, test = specs[key].metadata["rule"]
        if not test(value):
            raise InputError(f"config error at {path}: {value!r} is not {text}")
        try:
            kwargs[key] = _frozen(value, _floats(types[key]))
        except OverflowError:
            raise InputError(f"config error at {path}: a number too large for a float") from None
    return cls(**kwargs)


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


def parse_document(doc: dict) -> RunConfig:
    """Validate a config document and build its :class:`RunConfig`."""
    return _build(RunConfig, doc)


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
    return _sha256(canonical.encode()).hexdigest()
