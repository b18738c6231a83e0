"""One mapping codec for every section of a campaign spec.

Each spec section — ``[experiment]`` and its nested ``simulation`` /
``mspc`` / ``parallel`` tables, ``[sweep]``, ``[analysis]``, ``[live]``,
``[service]``, ``[gateway]``, ``[response]`` and ``[obs]`` — is a frozen
dataclass inheriting :class:`SpecSection`.  Its ``to_mapping`` and
``from_mapping`` are derived from the field annotations, resolved once per
class.  Supported annotations are ``int``, ``float``, ``bool``, ``str``,
``Optional[X]``, ``Tuple[X, ...]`` and nested sections.

Loading rejects unknown keys (with a "did you mean" hint), refuses bools
and strings where a number is expected and anything but a bool where a
boolean is, and prefixes every coercion error with the field's dotted path
(``experiment.simulation.seed``).

Dumping omits ``None`` (TOML has no null; absent means "default"), writes
float fields as floats — so a TOML ``10`` and ``10.0`` give identical
mappings, campaign ids and cache keys — and tuples as lists.  A field
whose metadata is :data:`OMIT_EMPTY` is also omitted while empty.
"""

from __future__ import annotations

import difflib
import functools
from dataclasses import fields
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

from repro.common.exceptions import ConfigurationError

__all__ = ["OMIT_EMPTY", "SpecSection", "check_keys", "coerce_int"]

#: Field metadata dropping an empty tuple from the dumped mapping.
OMIT_EMPTY = {"omit_empty": True}

Coerce = Callable[[Any, str], Any]
Dump = Callable[[Any], Any]


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
    str: _scalar(str),
}

#: The codec's integer coercer, for fields outside the spec sections.
coerce_int = _SCALARS[int]


def _field_codec(hint: Any) -> Tuple[Coerce, Dump]:
    """The (load, dump) pair of one field annotation."""
    origin = get_origin(hint)
    if origin is Union:
        (inner,) = [arg for arg in get_args(hint) if arg is not type(None)]
        load, dump = _field_codec(inner)
        return (lambda value, path: None if value is None else load(value, path)), dump
    if origin is tuple:
        load_item, dump_item = _field_codec(get_args(hint)[0])

        def load_tuple(value: Any, path: str) -> Tuple[Any, ...]:
            # A string would iterate per character; a mapping per key.
            if isinstance(value, (str, bytes, Mapping)) or not hasattr(
                value, "__iter__"
            ):
                raise ConfigurationError(
                    f"invalid {path}: expected a list, got {value!r}"
                )
            return tuple(
                load_item(item, f"{path}[{index}]")
                for index, item in enumerate(value)
            )

        return load_tuple, lambda value: [dump_item(item) for item in value]
    if isinstance(hint, type) and issubclass(hint, SpecSection):
        return hint.from_mapping, hint.to_mapping
    return _SCALARS[hint], (float if hint is float else lambda value: value)


@functools.lru_cache(maxsize=None)
def _plan(cls: type) -> Tuple[Tuple[str, Coerce, Dump, bool], ...]:
    """``(name, load, dump, omit_empty)`` of each field, in field order."""
    hints = get_type_hints(cls)
    return tuple(
        (
            spec.name,
            *_field_codec(hints[spec.name]),
            bool(spec.metadata.get("omit_empty")),
        )
        for spec in fields(cls)
    )


class SpecSection:
    """Base of the spec-section dataclasses: their mapping form.

    Subclasses name their section for error messages with a class keyword,
    ``class LiveConfig(SpecSection, section="live")``.
    """

    #: Dotted path of the section when it is loaded on its own.
    section: ClassVar[str] = ""

    def __init_subclass__(cls, section: str = "", **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.section = section

    @property
    def is_default(self) -> bool:
        """Whether this section matches the defaults (and can be omitted)."""
        return self == type(self)()

    def to_mapping(self) -> Dict[str, Any]:
        """A plain, JSON/TOML-ready mapping of this section."""
        mapping: Dict[str, Any] = {}
        for name, _, dump, omit_empty in _plan(type(self)):
            value = getattr(self, name)
            if value is None or (omit_empty and not value):
                continue
            mapping[name] = dump(value)
        return mapping

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any], path: Optional[str] = None):
        """Build from a mapping, rejecting unknown keys and coercing types.

        ``path`` names the section in error messages; it defaults to the
        class's own section name.
        """
        path = path or cls.section
        loaders = {name: load for name, load, _, _ in _plan(cls)}
        check_keys(mapping, loaders, path)
        return cls(
            **{
                key: loaders[key](value, f"{path}.{key}")
                for key, value in mapping.items()
            }
        )
