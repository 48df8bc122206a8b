"""Scenario files: strict JSON documents and the registry of scenario kinds.

A scenario document is::

    {"version": 1, "kind": "<kind>", "metadata": {...}, "body": {...}}

where kind is one of negotiation, chain, nonmarket, power_chain, society.
Each kind has one registry entry naming its body dataclass, which lives in
the kind's engine module, and its renderers in ``kinds``.  The engine
module is imported only when a document of the kind is read, so only
society documents load numpy.

A body's document fields are the init fields of its dataclass; what its
engine runs on, the body builds from them itself.  Each annotation has one
codec, a reader and a writer worked out once: a JSON array is a
``tuple[X, ...]``, an object whose keys are data a ``Mapping[str, X]``, a
union of dataclasses an object with a "kind" tag, and the one field a
document leaves out is a perception view's role, implied by where the
view sits.
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
# the codec: how each annotation maps to JSON, worked out once per annotation

def _join(path: str, name: str | None) -> str:
    return f"{path}.{name}" if path and name else path or name or ""


def _obj(value: Any, path: str, allowed: abc.Container[str] | None = None,
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
    if not isinstance(value, expected) or (expected is int and isinstance(value, bool)):
        raise ScenarioError(f"expected {_NAMES[expected]}, got {type(value).__name__}", path)
    return value


_Reader = Callable[[Any, str], Any]
_Writer = Callable[[Any], Any]


@functools.cache
def _codec(annotation: Any) -> tuple[_Reader, _Writer]:
    """The reader ``(value, path) -> field value`` and the writer ``field
    value -> JSON value`` of an annotation."""
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if annotation in (float, int, str, bool):
        return (_num if annotation is float else functools.partial(_scalar, annotation),
                lambda value: value)
    if origin is tuple:  # tuple[X, ...] is a JSON array
        read, write = _codec(args[0])

        def read_array(value: Any, path: str) -> tuple:
            if not isinstance(value, list):
                raise ScenarioError("expected an array", path)
            return tuple(read(v, f"{path}[{i}]") for i, v in enumerate(value))
        return read_array, lambda value: [write(v) for v in value]
    if origin is abc.Mapping:  # an object whose keys are data
        read, write = _codec(args[1])
        return (lambda value, path: {key: read(v, f"{path}.{key}")
                                     for key, v in _obj(value, path).items()},
                lambda value: {key: write(v) for key, v in value.items()})
    if not args:  # a dataclass
        return functools.partial(_read_fields, annotation), _write_fields
    options = tuple(a for a in args if a is not type(None))  # a union; None is left out
    if len(options) == 1:
        return _codec(options[0])
    # a union of dataclasses is stored with a "kind" tag: the lowercased class name
    tags = {cls.__name__.lower(): cls for cls in options}
    allowed = {"kind"}.union(*(_document_fields(cls)[0] for cls in options))

    def read_tagged(value: Any, path: str) -> Any:
        obj = _obj(value, path, allowed, ("kind",))
        tag = _scalar(str, obj["kind"], f"{path}.kind")
        if tag not in tags:
            raise ScenarioError(f"must be one of {', '.join(tags)}", f"{path}.kind")
        return _read_fields(tags[tag], {k: v for k, v in obj.items() if k != "kind"}, path)
    return read_tagged, lambda value: {"kind": type(value).__name__.lower(),
                                       **_write_fields(value)}


@functools.cache
def _document_fields(cls: type) -> tuple[dict[str, _Reader], tuple[tuple[str, _Writer], ...],
                                         tuple[str, ...], Any]:
    """A dataclass's document fields, its init fields but a perception
    view's role: name -> reader, (name, writer) pairs, the names a document
    must give, and the role type when the role is implied by where the view
    sits (None for any other class)."""
    hints = typing.get_type_hints(cls)
    view = cls.__name__ == "PerceptionView"
    fields = [f for f in dataclasses.fields(cls) if f.init and not (view and f.name == "role")]
    codecs = {f.name: _codec(hints[f.name]) for f in fields}
    return ({name: read for name, (read, _) in codecs.items()},
            tuple((name, write) for name, (_, write) in codecs.items()),
            tuple(f.name for f in fields if f.default is f.default_factory is dataclasses.MISSING),
            hints["role"] if view else None)


def _read_fields(cls: type, value: Any, path: str) -> Any:
    readers, _, required, role = _document_fields(cls)
    kwargs = {name: readers[name](v, _join(path, name))
              for name, v in _obj(value, path, readers, required).items()}
    if role is not None:  # buyer.view or stages[i].buyer_view holds a buyer's view
        kwargs["role"] = role.BUYER if path.endswith(("buyer.view", "buyer_view")) else role.SELLER
    try:
        return cls(**kwargs)
    except InvalidConfig as exc:  # an engine invariant, reported at its field's path
        raise ScenarioError(exc.rule, _join(path, exc.field)) from None


def _write_fields(value: Any) -> dict:
    return {name: write(v) for name, write in _document_fields(type(value))[1]
            if (v := getattr(value, name)) is not None}


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
    metadata = _codec(Mapping[str, str])[0](top.get("metadata", {}), "metadata")
    body = _read_fields(KINDS[kind].body_type(), _obj(top["body"], "body"), "")  # body-relative
    KINDS[kind].check(body)
    return Scenario(version=version, kind=kind, body=body, metadata=metadata)


def scenario_document(scenario: Scenario) -> dict:
    """Scenario as a plain JSON-ready dict."""
    doc: dict[str, Any] = {"version": scenario.version, "kind": scenario.kind,
                           "body": _write_fields(scenario.body)}
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
