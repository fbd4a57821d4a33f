"""The factored space of voting transactions, its presets, and the JSON
config readers.

A transaction is one voter's full interaction with a ballot-marking device,
modeled as one value per attribute (language, timing bin, settings, ...).
Two built-in presets, ``optimistic`` and ``realistic``, mirror the published
attribute table column by column; rows absent from the optimistic column are
omitted from the optimistic preset.

This module uses only the standard library, so sizing a space (the
``cardinality`` subcommand) loads no numpy; distributions over a space live
in ``transactions``.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, NamedTuple, TypeVar

from .errors import DomainError, ParseError, read_input, validated

_T = TypeVar("_T")


@validated
class AttributeSpec(NamedTuple):
    """One attribute of a voting transaction and how many values it can take."""

    name: str
    cardinality: int

    def _check(self) -> None:
        if not isinstance(self.name, str):
            raise DomainError(f"attribute name must be a string, got {self.name!r}")
        if self.cardinality < 1:
            raise DomainError(f"cardinality of {self.name!r} must be >= 1")


@validated
class TransactionSpace(NamedTuple):
    """Ordered product of attributes; a transaction is one point in it."""

    attributes: tuple[AttributeSpec, ...]

    def _check(self) -> None:
        if not self.attributes:
            raise DomainError("a transaction space needs at least one attribute")
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise DomainError("attribute names must be unique")

    @property
    def cardinality(self) -> int:
        return math.prod(a.cardinality for a in self.attributes)

    def index_of(self, name: str) -> int:
        for i, a in enumerate(self.attributes):
            if a.name == name:
                return i
        raise DomainError(f"no attribute named {name!r}")


class Transaction(NamedTuple):
    """A single voting transaction: one value index per attribute."""

    coordinates: tuple[int, ...]


def optimistic_preset() -> TransactionSpace:
    return TransactionSpace(
        (
            AttributeSpec("contests", 3),
            AttributeSpec("candidates_per_contest", 2),
            AttributeSpec("languages", 2),
            AttributeSpec("time_of_day", 10),
            AttributeSpec("previous_voters", 5),
            AttributeSpec("undervotes", 2**3),
            AttributeSpec("changed_selections", 2**3),
            AttributeSpec("review", 2),
            AttributeSpec("time_per_selection", 2),
            AttributeSpec("font_size", 2),
            AttributeSpec("audio_use", 2),
            AttributeSpec("volume", 5),
            AttributeSpec("inactivity_warning", 2),
        )
    )


def realistic_preset() -> TransactionSpace:
    return TransactionSpace(
        (
            AttributeSpec("contests", 20),
            AttributeSpec("candidates_per_contest", 4),
            AttributeSpec("languages", 13),
            AttributeSpec("time_of_day", 20),
            AttributeSpec("previous_voters", 10),
            AttributeSpec("undervotes", 2**20),
            AttributeSpec("changed_selections", 2**20),
            AttributeSpec("review", 2),
            AttributeSpec("time_per_selection", 5**20),
            AttributeSpec("contrast_saturation", 4),
            AttributeSpec("font_size", 4),
            AttributeSpec("audio_use", 2),
            AttributeSpec("audio_tempo", 4),
            AttributeSpec("volume", 10),
            AttributeSpec("audio_pause", 2**20),
            AttributeSpec("audio_video", 2),
            AttributeSpec("inactivity_warning", 2**20),
        )
    )


PRESETS = {"optimistic": optimistic_preset, "realistic": realistic_preset}


# -- declarative config ----------------------------------------------------


def require(cfg: Mapping, key: str, where: str):
    """``cfg[key]``, where ``where`` names ``cfg`` in a config file; a missing
    key, or a ``cfg`` that is not a JSON object, is a ``ParseError``."""
    if not isinstance(cfg, Mapping):
        raise ParseError(f"{where} must be a JSON object")
    if key not in cfg:
        raise ParseError(f"{where} needs {key!r}")
    return cfg[key]


def as_int(value, what: str) -> int:
    """``value`` as an int: a JSON integer, or a float with an integral value;
    anything else (a boolean, a string, a fraction) is a ``ParseError``."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return int(value)


def as_number(value, what: str) -> float:
    """``value`` unchanged if it is a JSON number; otherwise a ``ParseError``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{what} must be a number, got {value!r}")
    return value


def list_of(values, convert: Callable[[object, str], _T], what: str) -> list[_T]:
    """``convert`` applied to each item of the JSON array ``values``; anything
    but an array is a ``ParseError``."""
    if not isinstance(values, list):
        raise ParseError(f"{what} must be a list, got {values!r}")
    return [convert(v, what) for v in values]


def lists_by_name(values, convert: Callable[[object, str], _T], what: str) -> dict[str, list[_T]]:
    """``list_of`` applied to each array of the JSON object ``values``, which
    maps attribute names to arrays; anything else is a ``ParseError``."""
    if not isinstance(values, Mapping):
        raise ParseError(f"{what} must map attribute names to lists, got {values!r}")
    return {name: list_of(v, convert, f"{what} {name!r}") for name, v in values.items()}


def get_int(cfg: Mapping, key: str, where: str, default: int | None = None) -> int:
    """``cfg[key]`` read by ``as_int``, or ``default`` if ``key`` is missing; a
    missing key without a default is a ``ParseError``."""
    value = require(cfg, key, where) if default is None or key in cfg else default
    return as_int(value, f"{where} {key!r}")


def get_number(cfg: Mapping, key: str, where: str) -> float:
    """``cfg[key]``, which must be a JSON number; otherwise a ``ParseError``."""
    return as_number(require(cfg, key, where), f"{where} {key!r}")


def get_str(cfg: Mapping, key: str, where: str) -> str:
    """``cfg[key]``, which must be a JSON string, or ``""`` if ``key`` is
    missing; anything else is a ``ParseError``."""
    value = cfg.get(key, "")
    if not isinstance(value, str):
        raise ParseError(f"{where} {key!r} must be a string, got {value!r}")
    return value


def load_config(path: str, parse: Callable[[Mapping], _T]) -> _T:
    """``parse`` applied to the JSON in the file at ``path`` (``read_input``)."""
    import json  # here, so that a call that reads no file loads no json

    def parse_json(text: str) -> _T:
        try:
            cfg = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
            raise ParseError(f"not valid JSON ({exc})") from None
        return parse(cfg)

    return read_input(path, parse_json)


def space_from_config(cfg: Mapping) -> TransactionSpace:
    """Space from ``{"preset": name}`` or ``{"attributes": [{name, cardinality}]}``."""
    if not isinstance(cfg, Mapping):
        raise ParseError("space config must be a JSON object")
    if "preset" in cfg:
        name = cfg["preset"]
        if not isinstance(name, str) or name not in PRESETS:
            raise ParseError(f"unknown preset {name!r}")
        return PRESETS[name]()
    if "attributes" in cfg:
        specs = []
        for i, a in enumerate(list_of(cfg["attributes"], lambda a, _: a, "space 'attributes'")):
            where = f"space attribute {i}"
            specs.append(
                AttributeSpec(require(a, "name", where), get_int(a, "cardinality", where))
            )
        return TransactionSpace(tuple(specs))
    raise ParseError("space config needs 'preset' or 'attributes'")


def load_space(path: str) -> TransactionSpace:
    return load_config(path, space_from_config)
