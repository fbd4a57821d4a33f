"""Exception types shared across the package, the ``validated`` decorator of
the records that check their fields, and ``read_input``, every file's reader."""

from typing import Callable, TypeVar

_T = TypeVar("_T")


class DomainError(ValueError):
    """An argument is outside the domain of the operation."""


class Infeasible(DomainError):
    """No solution exists for the given budgets (e.g. an undetectable attack)."""


class ParseError(DomainError):
    """A data file does not conform to its schema."""


def validated(cls):
    """Make every construction of the ``typing.NamedTuple`` ``cls`` run
    ``self._check()``: ``X(...)`` through ``__init__``, ``X._make`` and so
    ``x._replace`` through ``X(...)``.  A NamedTuple body may set neither."""
    cls.__init__ = lambda self, *args, **kwargs: self._check()
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))
    return cls


def read_input(path: str, parse: Callable[[str], _T]) -> _T:
    """``parse`` applied to the UTF-8 text of the file at ``path``.  A byte that
    is not UTF-8, and any ``DomainError`` from ``parse`` (a reader's shape check
    or a record's ``_check``), raise one ``ParseError`` that names the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return parse(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}: line {line}: not valid UTF-8") from None
    except DomainError as exc:
        raise ParseError(f"{path}: {exc}") from None
