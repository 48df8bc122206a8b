"""Scenario files: strict JSON documents and the registry of scenario kinds.

A scenario document is::

    {"version": 1, "kind": "<kind>", "metadata": {...}, "body": {...}}

where kind is one of negotiation, chain, nonmarket, power_chain, society.
Each kind has one registry entry naming its body dataclass, which lives in
the kind's engine module, and its renderers in ``kinds``.  The engine
module is imported only when a document of the kind is read, so only
society documents load numpy.

A body is read and written by walking the init fields of its dataclass,
which are the fields of its document; what its engine runs on, the body
builds from them itself.  A JSON array is a ``tuple[X, ...]``, an object
whose keys are data a ``Mapping[str, X]``, and the one field a document
leaves out is a perception view's role, implied by where the view sits.
Reading checks shape and types; value invariants belong to the engine
dataclasses, and any they raise is reported at the offending field's path
(body-relative, e.g. "rates.r_a").  A perception view checks its own
imbalance ratio when it is built, so a divisor below the epsilon floor is
reported at that field and a ratio out of range at the view.  Reading also
enforces the work budget below.  Every document it rejects raises
``ScenarioError``, whose field is the path.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing
from collections import abc
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path
from typing import Any, Callable, Mapping

from . import kinds
from .errors import InvalidConfig, ScenarioError

SUPPORTED_VERSIONS = (1,)
PRESETS = Path(__file__).with_name("presets")

#: Work budget, checked at parse time: a negotiation or chain may run at
#: most MAX_STEPS steps per link and a chain MAX_CHAIN_STEPS over all its
#: links, a society may hold at most MAX_AGENTS agents and make at most
#: MAX_EXCHANGES pair exchanges in at most MAX_ROUNDS rounds.
MAX_STEPS = 100_000
MAX_CHAIN_STEPS = 10 * MAX_STEPS
MAX_AGENTS = 1_000_000
MAX_EXCHANGES = 10 ** 7
MAX_ROUNDS = 10 ** 5


@dataclass(frozen=True)
class Scenario:
    version: int
    kind: str
    body: Any
    metadata: Mapping[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# reading: shape and type checks, engine invariants reported at their path

def _join(path: str, name: str | None) -> str:
    return f"{path}.{name}" if path and name else path or name or ""


def _obj(value: Any, path: str, allowed: set[str] | None = None,
         required: tuple[str, ...] = ()) -> dict:
    """``value`` as a JSON object whose keys are all in ``allowed`` (None:
    any key) and include ``required``."""
    if not isinstance(value, dict):
        raise ScenarioError(f"expected an object, got {type(value).__name__}", path)
    for key in value:
        if allowed is not None and key not in allowed:
            raise ScenarioError("unknown field", _join(path, key))
    for key in required:
        if key not in value:
            raise ScenarioError(f"missing required field {key!r}", path)
    return value


def _num(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"expected a number, got {type(value).__name__}", path)
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioError("must be a finite number", path)
    return number


_NAMES = {int: "an integer", str: "a string", bool: "a boolean"}


def _scalar(expected: type, value: Any, path: str) -> Any:
    if expected is float:
        return _num(value, path)
    if not isinstance(value, expected) or (expected is int and isinstance(value, bool)):
        raise ScenarioError(f"expected {_NAMES[expected]}, got {type(value).__name__}", path)
    return value


@functools.cache
def _fields(cls: type) -> dict[str, tuple[Any, bool]]:
    """Each init field of a dataclass: name -> (annotation, required in documents)."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is f.default_factory is dataclasses.MISSING)
            for f in dataclasses.fields(cls) if f.init}


def _options(annotation: Any) -> tuple | None:
    """The non-None members of a union annotation, or None for any other."""
    if typing.get_origin(annotation) not in (typing.Union, types.UnionType):
        return None
    return tuple(a for a in typing.get_args(annotation) if a is not type(None))


def _read(annotation: Any, value: Any, path: str) -> Any:
    if annotation in (float, int, str, bool):
        return _scalar(annotation, value, path)
    origin = typing.get_origin(annotation)
    if origin is tuple:  # tuple[X, ...] is a JSON array
        if not isinstance(value, list):
            raise ScenarioError("expected an array", path)
        item = typing.get_args(annotation)[0]
        return tuple(_read(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    if origin is abc.Mapping:  # Mapping[str, X] is a JSON object whose keys are data
        item = typing.get_args(annotation)[1]
        return {key: _read(item, v, f"{path}.{key}") for key, v in _obj(value, path).items()}
    options = _options(annotation)
    if options is None:
        if annotation.__name__ == "PerceptionView":
            return _read_view(annotation, value, path)
        return _read_fields(annotation, value, path)
    if len(options) == 1:
        return _read(options[0], value, path)
    # a union of dataclasses is stored with a "kind" tag: the lowercased class name
    tags = {cls.__name__.lower(): cls for cls in options}
    obj = _obj(value, path, {"kind"}.union(*map(_fields, options)), ("kind",))
    tag = _scalar(str, obj["kind"], f"{path}.kind")
    if tag not in tags:
        raise ScenarioError(f"must be one of {', '.join(tags)}", f"{path}.kind")
    return _read_fields(tags[tag], {k: v for k, v in obj.items() if k != "kind"}, path)


def _read_fields(cls: type, value: Any, path: str, **given: Any) -> Any:
    fields = {name: spec for name, spec in _fields(cls).items() if name not in given}
    obj = _obj(value, path, set(fields), tuple(name for name, (_, req) in fields.items() if req))
    kwargs = {name: _read(fields[name][0], v, _join(path, name)) for name, v in obj.items()}
    try:
        return cls(**kwargs, **given)
    except InvalidConfig as exc:  # an engine invariant, reported at its field's path
        raise ScenarioError(exc.rule, _join(path, exc.field)) from None


def _read_view(cls: type, value: Any, path: str) -> Any:
    from .core import Role

    # the role is implied by where the view sits: buyer.view or stages[i].buyer_view
    role = Role.BUYER if path.endswith(("buyer.view", "buyer_view")) else Role.SELLER
    return _read_fields(cls, value, path, role=role)


# ---------------------------------------------------------------------------
# writing: the inverse of reading

def _write(annotation: Any, value: Any) -> Any:
    origin = typing.get_origin(annotation)
    if origin is tuple:
        item = typing.get_args(annotation)[0]
        return [_write(item, v) for v in value]
    if origin is abc.Mapping:
        item = typing.get_args(annotation)[1]
        return {key: _write(item, v) for key, v in value.items()}
    options = _options(annotation)
    if options is not None:
        doc = _write(type(value), value)
        return {"kind": type(value).__name__.lower(), **doc} if len(options) > 1 else doc
    if not dataclasses.is_dataclass(annotation):
        return value
    doc = {name: _write(spec[0], getattr(value, name)) for name, spec in _fields(annotation).items()
           if getattr(value, name) is not None}
    if annotation.__name__ == "PerceptionView":
        del doc["role"]  # implied by where the view sits
    return doc


# ---------------------------------------------------------------------------
# the kinds: parse-time checks beyond the body's own invariants, and the registry

def _check_steps(body) -> None:
    if body.max_steps > MAX_STEPS:
        raise ScenarioError(f"must be <= {MAX_STEPS}", "max_steps")


def _check_chain(body) -> None:
    _check_steps(body)
    if len(body.stages) * body.max_steps > MAX_CHAIN_STEPS:
        raise ScenarioError(f"len(stages) * max_steps must be <= {MAX_CHAIN_STEPS}", "stages")


def _check_society(body) -> None:
    if body.n_agents > MAX_AGENTS:
        raise ScenarioError(f"must be <= {MAX_AGENTS}", "n_agents")
    if (body.n_agents // 2) * body.epochs * body.pairings_per_epoch > MAX_EXCHANGES:
        raise ScenarioError("(n_agents // 2) * epochs * pairings_per_epoch "
                            f"must be <= {MAX_EXCHANGES}", "epochs")
    if body.epochs * body.pairings_per_epoch > MAX_ROUNDS:
        raise ScenarioError(f"epochs * pairings_per_epoch must be <= {MAX_ROUNDS}", "epochs")


@dataclass(frozen=True)
class Kind:
    """One scenario kind: its body dataclass in its engine module (the body's
    ``run()`` gives the engine's result), that result's renderers as the
    outcome payload and as CSV, and the parse-time checks beyond the body's
    own invariants."""

    module: str
    body_name: str
    payload: Callable[[Any, Any], dict]
    csv: Callable[[Any, Any], str]
    check: Callable[[Any], None] = lambda body: None

    def body_type(self) -> type:
        return getattr(import_module(f"{__package__}.{self.module}"), self.body_name)


KINDS = {
    "negotiation": Kind("negotiation", "NegotiationScenario", kinds.negotiation_payload,
                        kinds.negotiation_csv, _check_steps),
    "chain": Kind("chain", "ChainScenario", kinds.chain_payload, kinds.chain_csv, _check_chain),
    "nonmarket": Kind("nonmarket", "NonmarketScenario", kinds.nonmarket_payload,
                      kinds.nonmarket_csv),
    "power_chain": Kind("powerchain", "PowerChainScenario", kinds.power_chain_payload,
                        kinds.power_chain_csv),
    "society": Kind("society", "SocietyConfig", kinds.society_payload, kinds.society_csv,
                    _check_society),
}


# ---------------------------------------------------------------------------
# documents

def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                            f"{exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # past the decoder's digit or nesting limit
        raise ScenarioError(f"invalid JSON: {exc}") from None
    top = _obj(doc, "", {"version", "kind", "metadata", "body"}, ("version", "kind", "body"))
    version = _scalar(int, top["version"], "version")
    if version not in SUPPORTED_VERSIONS:
        raise ScenarioError("unsupported version (supported: "
                            f"{', '.join(map(str, SUPPORTED_VERSIONS))})", "version")
    kind = _scalar(str, top["kind"], "kind")
    if kind not in KINDS:
        raise ScenarioError(f"must be one of {', '.join(KINDS)}", "kind")
    metadata = _read(Mapping[str, str], top.get("metadata", {}), "metadata")
    body = _read(KINDS[kind].body_type(), _obj(top["body"], "body"), "")  # paths are body-relative
    KINDS[kind].check(body)
    return Scenario(version=version, kind=kind, body=body, metadata=metadata)


def scenario_document(scenario: Scenario) -> dict:
    """Scenario as a plain JSON-ready dict."""
    doc: dict[str, Any] = {"version": scenario.version, "kind": scenario.kind,
                           "body": _write(type(scenario.body), scenario.body)}
    if scenario.metadata:
        doc["metadata"] = dict(scenario.metadata)
    return doc


# ---------------------------------------------------------------------------
# bundled presets

def preset_names() -> list[str]:
    return sorted(p.stem for p in PRESETS.glob("*.json"))


def preset_text(name: str) -> str:
    candidate = PRESETS / f"{name.removesuffix('.json')}.json"
    if not candidate.is_file():
        raise FileNotFoundError(f"no bundled preset named {name.removesuffix('.json')!r}")
    return candidate.read_text(encoding="utf-8")


def load_preset(name: str) -> Scenario:
    return parse_scenario(preset_text(name))
