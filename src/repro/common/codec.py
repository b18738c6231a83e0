"""One mapping codec for the spec sections and the result records.

Two families of dataclasses cross a boundary as plain mappings:

* the **spec sections** — ``[experiment]`` and its nested ``simulation`` /
  ``mspc`` / ``parallel`` tables, ``[sweep]``, ``[analysis]``, ``[live]``,
  ``[service]``, ``[gateway]``, ``[response]`` and ``[obs]`` — inherit
  :class:`SpecSection` and travel as TOML/JSON spec documents;
* the **result records** — oMEDA vectors, diagnosis summaries, alarm
  events, live and response reports, scenario and response summaries,
  work chunks and stream statuses — inherit :class:`Record` and travel as
  JSON over HTTP, ingest sockets and journals.

Both derive ``to_mapping`` and ``from_mapping`` from the field annotations,
resolved once per class.  Supported annotations are ``int``, ``float``,
``bool``, ``str``, ``Optional[X]``, ``Tuple[X, ...]``, ``List[X]``,
``Dict[str, X]`` (key order kept), ``Any`` (passed through), an ``Enum``
(stored by its value), ``np.ndarray`` (a list of floats, loaded back as a
float array) and nested records — a :class:`Record` subclass, or any class
with its own ``to_mapping`` / ``from_mapping``.  A field whose wire shape
its annotation cannot describe names a ``(load, dump)`` pair with
:func:`override` in its metadata.

Loading rejects unknown keys (with a "did you mean" hint) and missing keys
of fields without a default, refuses bools and strings where a number is
expected, anything but a bool where a boolean is and anything but a string
where a string is, and prefixes every error with the field's dotted path
(``experiment.simulation.seed``, ``snapshot.classification``,
``actions[0].index``).

Dumping writes floats as Python floats — so a TOML ``10`` and ``10.0``
give identical mappings, campaign ids and cache keys, and ``json.dumps``
writes a float's shortest round-trip repr — integers as Python ints (numpy
integers are not JSON-serializable), and tuples and arrays as lists.  The
two families differ in one policy, :attr:`Record.omit_none`: a record dumps
every field, ``None`` as ``null``, so equal records give byte-identical
JSON; a spec section omits ``None`` (TOML has no null; absent means
"default") and, for a field whose metadata is :data:`OMIT_EMPTY`, an empty
tuple.
"""

from __future__ import annotations

import difflib
import enum
import functools
from dataclasses import MISSING, fields
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterable,
    Mapping,
    Optional,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

import numpy as np

from repro.common.exceptions import ConfigurationError

__all__ = [
    "OMIT_EMPTY",
    "Record",
    "SpecSection",
    "check_keys",
    "coerce_float",
    "coerce_int",
    "field_codec",
    "override",
]

#: Field metadata dropping an empty tuple from a spec section's mapping.
OMIT_EMPTY = {"omit_empty": True}

Coerce = Callable[[Any, str], Any]
Dump = Callable[[Any], Any]


def override(load: Coerce, dump: Dump) -> Dict[str, Any]:
    """Field metadata giving one field its own ``(load, dump)`` pair."""
    return {"codec": (load, dump)}


def check_keys(mapping: Any, allowed: Iterable[str], path: str) -> None:
    """Require a mapping whose keys are all in ``allowed``.

    A misspelled option in a spec file must fail, not be silently ignored;
    the error names the closest allowed key when there is one.
    """
    if not isinstance(mapping, Mapping):
        raise ConfigurationError(f"{path} must be a table/mapping, got {mapping!r}")
    allowed = sorted(allowed)
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        hints = []
        for key in unknown:
            close = difflib.get_close_matches(key, allowed, n=1)
            if close:
                hints.append(f"{key!r} -> did you mean {close[0]!r}?")
        hint = f" ({'; '.join(hints)})" if hints else ""
        raise ConfigurationError(
            f"unknown key(s) {unknown} in {path} (allowed: {allowed}){hint}"
        )


def _int(value: Any) -> int:
    if isinstance(value, (bool, str)) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ConfigurationError(f"expected an integer, got {value!r}")
    return int(value)


def _float(value: Any) -> float:
    if isinstance(value, (bool, str)):
        raise ConfigurationError(f"expected a number, got {value!r}")
    return float(value)


def _bool(value: Any) -> bool:
    # bool("false") is True, a classic spec-file footgun: require a real bool.
    if not isinstance(value, bool):
        raise ConfigurationError(f"expected a boolean, got {value!r}")
    return value


def _str(value: Any) -> str:
    if not isinstance(value, str):
        raise ConfigurationError(f"expected a string, got {value!r}")
    return value


def _scalar(convert: Callable[[Any], Any]) -> Coerce:
    def coerce(value: Any, path: str) -> Any:
        try:
            return convert(value)
        except (ConfigurationError, TypeError, ValueError) as error:
            raise ConfigurationError(f"invalid {path}: {error}") from None

    return coerce


_SCALARS: Dict[type, Coerce] = {
    int: _scalar(_int),
    float: _scalar(_float),
    bool: _scalar(_bool),
    str: _scalar(_str),
}

#: The codec's number coercers, for values outside the codec's dataclasses.
coerce_int = _SCALARS[int]
coerce_float = _SCALARS[float]


def _sequence(load_item: Coerce) -> Coerce:
    """Load a list item by item, each item error naming its index."""

    def load(value: Any, path: str) -> list:
        # A string would iterate per character; a mapping per key.
        if isinstance(value, (str, bytes, Mapping)) or not hasattr(
            value, "__iter__"
        ):
            raise ConfigurationError(f"invalid {path}: expected a list, got {value!r}")
        return [load_item(item, f"{path}[{index}]") for index, item in enumerate(value)]

    return load


def _enum(cls: type) -> Tuple[Coerce, Dump]:
    def load(value: Any, path: str) -> enum.Enum:
        try:
            return cls(value)
        except ValueError:
            allowed = [member.value for member in cls]
            raise ConfigurationError(
                f"invalid {path}: {value!r} is not one of {allowed}"
            ) from None

    return load, lambda member: member.value


@functools.lru_cache(maxsize=None)
def field_codec(hint: Any) -> Tuple[Coerce, Dump]:
    """The ``(load, dump)`` pair of one field annotation."""
    origin = get_origin(hint)
    if origin is Union:
        (inner,) = [arg for arg in get_args(hint) if arg is not type(None)]
        load, dump = field_codec(inner)
        return (lambda value, path: None if value is None else load(value, path)), (
            lambda value: None if value is None else dump(value)
        )
    if origin in (tuple, list):
        load_item, dump_item = field_codec(get_args(hint)[0])
        load_list = _sequence(load_item)
        load = load_list if origin is list else (
            lambda value, path: tuple(load_list(value, path))
        )
        return load, lambda value: [dump_item(item) for item in value]
    if origin is dict:
        load_item, dump_item = field_codec(get_args(hint)[1])

        def load_dict(value: Any, path: str) -> Dict[str, Any]:
            if not isinstance(value, Mapping):
                raise ConfigurationError(
                    f"invalid {path}: expected a mapping, got {value!r}"
                )
            return {
                _SCALARS[str](key, path): load_item(item, f"{path}.{key}")
                for key, item in value.items()
            }

        return load_dict, lambda value: {
            key: dump_item(item) for key, item in value.items()
        }
    if hint is Any or hint is object:
        return (lambda value, path: value), (lambda value: value)
    if hint is np.ndarray:
        load_list = _sequence(_SCALARS[float])
        return (lambda value, path: np.array(load_list(value, path), dtype=float)), (
            lambda value: np.asarray(value, dtype=float).tolist()
        )
    if issubclass(hint, enum.Enum):
        return _enum(hint)
    if issubclass(hint, Record):
        return hint.from_mapping, hint.to_mapping
    if hasattr(hint, "from_mapping"):  # a record with a hand-written codec
        return (lambda value, path: hint.from_mapping(value)), hint.to_mapping
    return _SCALARS[hint], hint


class _Field:
    """How one dataclass field loads and dumps."""

    __slots__ = ("name", "load", "dump", "omit_empty", "required")

    def __init__(self, spec: Any, hint: Any):
        self.name = spec.name
        self.load, self.dump = spec.metadata.get("codec") or field_codec(hint)
        self.omit_empty = bool(spec.metadata.get("omit_empty"))
        self.required = spec.default is MISSING and spec.default_factory is MISSING


@functools.lru_cache(maxsize=None)
def _plan(cls: type) -> Tuple[_Field, ...]:
    """Each field's codec, in field order."""
    hints = get_type_hints(cls)
    return tuple(_Field(spec, hints[spec.name]) for spec in fields(cls))


class Record:
    """Base of the dataclasses with a derived mapping form: the result
    records, and through :class:`SpecSection` the spec sections.

    A record loaded on its own has no path prefix, so its errors name bare
    field paths (``snapshot.classification``).
    """

    #: Whether ``None``-valued fields are left out of the mapping (spec
    #: sections) rather than written as ``null`` (records).
    omit_none: ClassVar[bool] = False

    #: Dotted path of the dataclass when it is loaded on its own.
    section: ClassVar[str] = ""

    def __init_subclass__(cls, section: str = "", **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.section = section

    def to_mapping(self) -> Dict[str, Any]:
        """A plain, JSON-ready mapping of this dataclass, in field order."""
        mapping: Dict[str, Any] = {}
        for entry in _plan(type(self)):
            value = getattr(self, entry.name)
            if (value is None and self.omit_none) or (entry.omit_empty and not value):
                continue
            mapping[entry.name] = entry.dump(value)
        return mapping

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any], path: Optional[str] = None):
        """Build from a mapping, rejecting unknown or missing keys and
        coercing types.

        ``path`` names the dataclass in error messages; it defaults to the
        class's own section name.
        """
        path = path or cls.section
        plan = _plan(cls)
        where = path or cls.__name__
        check_keys(mapping, [entry.name for entry in plan], where)
        missing = [
            entry.name for entry in plan if entry.required and entry.name not in mapping
        ]
        if missing:
            raise ConfigurationError(f"missing key(s) {missing} in {where}")
        prefix = f"{path}." if path else ""
        loaders = {entry.name: entry.load for entry in plan}
        return cls(
            **{
                key: loaders[key](value, prefix + key)
                for key, value in mapping.items()
            }
        )


class SpecSection(Record):
    """Base of the spec-section dataclasses: their mapping form.

    Subclasses name their section for error messages with a class keyword,
    ``class LiveConfig(SpecSection, section="live")``.
    """

    omit_none = True

    @property
    def is_default(self) -> bool:
        """Whether this section matches the defaults (and can be omitted)."""
        return self == type(self)()
