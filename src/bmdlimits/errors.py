"""Exception types shared across the package, and the ``validated`` decorator
of the records that check their fields."""


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
