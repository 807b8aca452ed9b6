"""The run config's schema, shared by every config dataclass.

Each config type checks its own fields in ``__post_init__``, first their
declared types (:func:`check_types`), then its value rules, so each rule holds
however the config is built: from JSON, by ``dataclasses.replace`` or directly.
"""

import sys
from dataclasses import fields
from typing import get_args, get_origin


class ConfigError(ValueError):
    """The run configuration violates the schema."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def widen(value):
    """A JSON int that a float can hold as that float; any other value as it
    is, for the type check."""
    return float(value) if type(value) is int and typed(value, float) else value


def typed(value, kind) -> bool:
    """Whether ``value`` holds the declared type ``kind``: an int, a bool or a
    str exactly, a float as an int or float that a finite float can hold,
    ``X | None`` as either, a tuple item by item (``tuple[T, ...]`` at any
    length), and any other class as an instance of it."""
    items = get_args(kind)
    if get_origin(kind) is tuple:
        if items[-1:] == (Ellipsis,) and isinstance(value, tuple):
            items = items[:1] * len(value)
        return (isinstance(value, tuple) and len(value) == len(items)
                and all(map(typed, value, items)))
    if items:  # X | None
        return any(typed(value, item) for item in items)
    if kind is float:
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return type(value) is kind if kind in (int, bool, str) else isinstance(value, kind)


def check_types(config, where: str = "") -> None:
    """Raise :class:`ConfigError` naming the first field of the dataclass
    ``config`` that does not hold its declared type; ``where`` prefixes it."""
    for f in fields(config):
        require(typed(getattr(config, f.name), f.type),
                f"{where}{f.name} has the wrong type or is not finite")
