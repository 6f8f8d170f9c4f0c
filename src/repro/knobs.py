"""One declaration per configuration knob.

A config dataclass states each knob exactly once: the annotated field
gives its name and type, and a :func:`knob` call in the default position
gives the default, the valid range / choice set / plugin registry, the
help text and — when the knob is reachable from ``slim-link`` — its flag
spelling.  Everything else is derived here by one walk over
:func:`dataclasses.fields`, for the top-level config and for every nested
config dataclass alike:

* :func:`validate` — type, finiteness, range and choice/registry checks
  (called from ``__post_init__``; cross-field rules stay hand-written
  next to it);
* :func:`from_dict` — the typed inverse of :func:`dataclasses.asdict`,
  rejecting unknown keys and wrong-typed values by ``section.field``;
* :func:`add_flags` / :func:`apply_flags` — the command-line flags, with
  ``argparse.SUPPRESS`` defaults so "the user typed it" is simply "it is
  in the namespace", and ``choices`` read from the live registries.

>>> from dataclasses import dataclass
>>> @dataclass(frozen=True)
... class Demo:
...     level: int = knob(12, "grid level", flag="--level", ge=0, le=30)
...     def __post_init__(self):
...         validate(self)
>>> from_dict(Demo, {"level": 14})
Demo(level=14)
>>> from_dict(Demo, {"level": "14"})
Traceback (most recent call last):
    ...
ValueError: field 'level' must be an integer, got str
>>> Demo(level=31)
Traceback (most recent call last):
    ...
ValueError: field 'level' must be >= 0 and <= 30, got 31
>>> [flag.spelling for flag in flags(Demo)]
['--level']
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import operator
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import lru_cache
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    TypeVar,
)

__all__ = [
    "Knob",
    "Flag",
    "knob",
    "validate",
    "from_dict",
    "flags",
    "add_flags",
    "apply_flags",
]

T = TypeVar("T")

_METADATA_KEY = "knob"

#: Bound attribute -> (the comparison a valid value satisfies, its symbol).
#: Written in the positive so NaN — for which every comparison is false —
#: fails every bounded knob.
_BOUNDS = (
    ("gt", operator.gt, ">"),
    ("ge", operator.ge, ">="),
    ("lt", operator.lt, "<"),
    ("le", operator.le, "<="),
)


@dataclass(frozen=True)
class Knob:
    """Everything a config field declares beyond name, type and default.

    Attributes
    ----------
    help:
        One-line help text (the CLI appends the default).
    flag:
        The knob's ``slim-link`` spelling (``"--window-minutes"``), or
        ``None`` when it is only reachable from a config file.  On an
        optional nested config the flag is a switch that creates the
        section with its defaults when it is absent.
    flag_scale:
        Unit conversion of the flag: the flag's value is the field's value
        times this (``--max-speed-kmh`` = m/s x 3.6).
    gt, ge, lt, le:
        Exclusive / inclusive numeric bounds.
    choices:
        A fixed set of valid string values.
    registry:
        A live :class:`~repro.registry.Registry` whose registered names
        are the valid values — read at check time and at parser-build
        time, so a plugin registered later is valid in both places.
    also:
        Valid values outside the registry (``"auto"``).
    """

    help: str = ""
    flag: Optional[str] = None
    flag_scale: Optional[float] = None
    gt: Optional[float] = None
    ge: Optional[float] = None
    lt: Optional[float] = None
    le: Optional[float] = None
    choices: Optional[Tuple[str, ...]] = None
    registry: Any = None
    also: Tuple[str, ...] = ()

    def allowed(self) -> Optional[List[str]]:
        """The valid values right now, or ``None`` when unconstrained."""
        if self.registry is not None:
            return [*self.also, *self.registry.names()]
        if self.choices is not None:
            return [*self.also, *self.choices]
        return None


def knob(default: T, help: str = "", **spec: Any) -> T:
    """A dataclass field with ``default`` and a :class:`Knob` declaration
    (``spec`` takes the remaining :class:`Knob` attributes)."""
    return field(default=default, metadata={_METADATA_KEY: Knob(help=help, **spec)})


class _Entry(NamedTuple):
    """One field of a config dataclass, annotation resolved."""

    name: str
    base: type  # the annotated type with Optional[...] stripped
    optional: bool
    nested: bool  # ``base`` is itself a config dataclass
    spec: Knob
    default: Any
    bounds: Tuple[Tuple[Any, str, float], ...]  # (comparison, symbol, bound)


@lru_cache(maxsize=None)
def _schema(cls: type) -> Tuple[_Entry, ...]:
    hints = typing.get_type_hints(cls)
    entries = []
    for item in fields(cls):
        hint = hints[item.name]
        arguments = typing.get_args(hint)
        optional = typing.get_origin(hint) is typing.Union and type(None) in arguments
        if optional:
            (hint,) = (arg for arg in arguments if arg is not type(None))
        spec = item.metadata.get(_METADATA_KEY, Knob())
        bounds = tuple(
            (compare, symbol, getattr(spec, attribute))
            for attribute, compare, symbol in _BOUNDS
            if getattr(spec, attribute) is not None
        )
        entries.append(
            _Entry(
                name=item.name,
                base=hint,
                optional=optional,
                nested=is_dataclass(hint),
                spec=spec,
                default=item.default,
                bounds=bounds,
            )
        )
    return tuple(entries)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def _expected(entry: _Entry) -> str:
    if entry.nested:
        name = entry.base.__name__
        what = f"a mapping of {name} fields or a {name}"
    else:
        what = {
            bool: "true or false",
            int: "an integer",
            float: "a number",
            str: "a string",
        }[entry.base]
    return f"null or {what}" if entry.optional else what


def _check_type(path: str, entry: _Entry, value: Any) -> None:
    if value is None:
        ok = entry.optional
    elif entry.base is int:
        ok = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    elif entry.base is float:
        ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
    else:
        ok = isinstance(value, entry.base)
    if not ok:
        raise ValueError(
            f"field {path!r} must be {_expected(entry)}, "
            f"got {type(value).__name__}"
        )


def _plural(kind: str) -> str:
    return kind[:-1] + "ies" if kind.endswith("y") else kind + "s"


def _check_value(path: str, entry: _Entry, value: Any) -> None:
    spec = entry.spec
    if entry.base is float and not math.isfinite(value):
        raise ValueError(f"field {path!r} must be a finite number, got {value!r}")
    if not all(compare(value, bound) for compare, _, bound in entry.bounds):
        wanted = " and ".join(
            f"{symbol} {bound:g}" for _, symbol, bound in entry.bounds
        )
        raise ValueError(f"field {path!r} must be {wanted}, got {value!r}")
    allowed = spec.allowed()
    if allowed is None or value in allowed:
        return
    if spec.registry is None:
        raise ValueError(f"field {path!r} must be one of {allowed}, got {value!r}")
    kind = spec.registry.kind
    extra = "".join(f" (or {name!r})" for name in spec.also)
    raise ValueError(
        f"unknown {kind} {value!r}; "
        f"registered {_plural(kind)}: {spec.registry.names()}{extra}"
    )


def validate(config: Any) -> None:
    """Check every field of a config dataclass instance against its
    declaration; raises :class:`ValueError` naming the field."""
    for entry in _schema(type(config)):
        value = getattr(config, entry.name)
        _check_type(entry.name, entry, value)
        if value is not None and not entry.nested:
            _check_value(entry.name, entry, value)


# ----------------------------------------------------------------------
# (de)serialisation
# ----------------------------------------------------------------------
def from_dict(cls: typing.Type[T], data: Mapping[str, Any], section: str = "") -> T:
    """Build ``cls`` from :func:`dataclasses.asdict` output or a
    hand-written mapping (JSON).  Nested config sections are built the
    same way.  Unknown keys and wrong-typed values raise
    :class:`ValueError` naming ``section.field``."""
    label = section or cls.__name__
    if not isinstance(data, Mapping):
        raise ValueError(
            f"{label} must be a mapping of its fields, got {type(data).__name__}"
        )
    known = {entry.name: entry for entry in _schema(cls)}
    kwargs: Dict[str, Any] = {}
    for key, value in data.items():
        if key not in known:
            raise ValueError(
                f"unknown {label} field {key!r}; known fields: {sorted(known)}"
            )
        entry = known[key]
        path = f"{section}.{key}" if section else key
        if entry.nested and isinstance(value, Mapping):
            value = from_dict(entry.base, value, path)
        else:
            _check_type(path, entry, value)
        kwargs[key] = value
    return cls(**kwargs)


# ----------------------------------------------------------------------
# command-line flags
# ----------------------------------------------------------------------
def _dest(spelling: str) -> str:
    return spelling.lstrip("-").replace("-", "_")


class Flag(NamedTuple):
    """One generated command-line flag."""

    spelling: str
    path: Tuple[str, ...]  # field path from the top-level config
    entry: _Entry

    @property
    def dest(self) -> str:
        """The ``argparse`` namespace attribute the flag lands in."""
        return _dest(self.spelling)


def flags(cls: type, prefix: Tuple[str, ...] = ()) -> Iterator[Flag]:
    """Every flag ``cls`` and its nested configs declare, in field order."""
    for entry in _schema(cls):
        path = (*prefix, entry.name)
        if entry.spec.flag is not None:
            yield Flag(entry.spec.flag, path, entry)
        if entry.nested:
            yield from flags(entry.base, path)


def add_flags(parser: argparse.ArgumentParser, cls: type) -> None:
    """Add every flag of ``cls`` to ``parser``.  Defaults are suppressed
    (an untyped flag leaves no trace in the namespace, so the config's own
    default — or a ``--config`` file's value — survives) and ``choices``
    are whatever the registries hold right now."""
    for flag in flags(cls):
        entry = flag.entry
        kind: Dict[str, Any]
        if entry.nested:  # the switch of an optional section
            shown, kind = "off", {"action": "store_true"}
        else:
            shown = entry.default
            if entry.spec.flag_scale:
                shown *= entry.spec.flag_scale
            shown = f"{shown:g}" if isinstance(shown, float) else str(shown)
            kind = {"type": entry.base, "choices": entry.spec.allowed()}
        parser.add_argument(
            flag.spelling,
            default=argparse.SUPPRESS,
            help=f"{entry.spec.help} (default: {shown})",
            **kind,
        )


def apply_flags(config: T, namespace: argparse.Namespace) -> T:
    """``config`` with every flag present in ``namespace`` applied.

    A nested section's flags need the section to exist — from the base
    config or from the section's own switch; otherwise they would be
    silently dropped, so that is a :class:`ValueError` naming the flag.
    """
    typed = vars(namespace)
    changes: Dict[str, Any] = {}
    for entry in _schema(type(config)):
        spec = entry.spec
        is_typed = spec.flag is not None and _dest(spec.flag) in typed
        if not entry.nested:
            if is_typed:
                value = typed[_dest(spec.flag)]
                changes[entry.name] = (
                    value / spec.flag_scale if spec.flag_scale else value
                )
            continue
        section = getattr(config, entry.name)
        if section is None and is_typed:
            section = entry.base()
        section_flags = [f.spelling for f in flags(entry.base) if f.dest in typed]
        if section_flags and section is None:
            raise ValueError(
                f"{section_flags[0]} needs {spec.flag} or a config with the "
                f"{json.dumps(entry.name)} section"
            )
        if section_flags:
            section = apply_flags(section, namespace)
        changes[entry.name] = section
    return replace(config, **changes)  # type: ignore[type-var]
