"""Distributions over the factored space of voting transactions.

The space itself, its presets and the JSON config readers live in the
numpy-free ``space`` module.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from functools import reduce
from itertools import chain

import numpy as np

from .errors import DomainError, ParseError
from .space import (
    Transaction,
    TransactionSpace,
    as_int,
    as_number,
    list_of,
    lists_by_name,
    require,
)

#: Dense enumeration (e.g. for L1 distances between factored distributions)
#: is only permitted below this cardinality; everything larger must be sparse.
DENSE_LIMIT = 10**7

_MASS_TOL = 1e-9

_INT64_MAX = 2**63 - 1


def _as_points(space: TransactionSpace, points) -> np.ndarray:
    """Validated ``(n, d)`` int64 array of coordinate rows.

    An int64 array comes back without a copy, and no points as a ``(0, d)``
    array; other rows are read flat (``_flat_rows``), and non-integral or
    out-of-range coordinates raise ``DomainError``.
    """
    d = len(space.attributes)
    if len(points) == 0:
        return np.empty((0, d), dtype=np.int64)
    arr = points if isinstance(points, np.ndarray) else _flat_rows(points, d)
    if arr.ndim != 2 or arr.shape[1] != d:
        raise DomainError(f"expected points of {d} coordinates, got shape {arr.shape}")
    if arr.dtype.kind in "iu":
        arr = arr.astype(np.int64, copy=False)
    else:
        # nan, inf and 2**63 up would cast with a RuntimeWarning; refuse them first
        if arr.dtype.kind == "f" and not (np.abs(arr) < 2.0**63).all():
            raise DomainError("coordinates must be integers below 2**63")
        try:
            as_int = arr.astype(np.int64)
        except (OverflowError, TypeError, ValueError):
            raise DomainError("coordinates must be integers below 2**63") from None
        # array_equal, not ==, so that strings compare unequal on every numpy
        if not np.array_equal(as_int, arr):
            raise DomainError("coordinates must be integers")
        arr = as_int
    cards = np.array(
        [min(a.cardinality, _INT64_MAX) for a in space.attributes], dtype=np.int64
    )
    # the clamp can flag a legal coordinate; the exact check below decides
    flagged = ((arr < 0) | (arr >= cards)).any(axis=1)
    for row in arr[flagged].tolist():
        for c, a in zip(row, space.attributes):
            if not 0 <= c < a.cardinality:
                raise DomainError(f"coordinate {c} out of range for {a.name!r}")
    return arr


def _flat_rows(rows, d: int) -> np.ndarray:
    """``(n, d)`` array of ``rows``, each a sequence or array of ``d`` numbers.

    numpy reads the flattened list of coordinates to the dtype it would give
    the nested rows, several times faster.
    """
    sequences = all(issubclass(t, (Sequence, np.ndarray)) for t in set(map(type, rows)))
    try:
        if sequences and set(map(len, rows)) == {d}:
            flat = np.array(list(chain.from_iterable(rows)))
            if flat.ndim == 1:  # not rows of rows
                return flat.reshape(-1, d)
    except (TypeError, ValueError):  # a 0-d array row; ragged coordinates
        pass
    raise DomainError(f"every point needs {d} coordinates")


def _normalized(w: np.ndarray, what: str) -> np.ndarray:
    """Non-negative weights ``w`` that sum to 1 within ``_MASS_TOL``, rescaled
    to sum to 1 exactly; ``what`` names them in the errors."""
    if (w < 0).any():
        raise DomainError(f"negative weight {what}")
    total = w.sum()
    if not abs(total - 1.0) <= _MASS_TOL:  # NaN-safe
        raise DomainError(f"weights {what} sum to {total}, not 1")
    return w / total


def _row_keys(rows: np.ndarray, space: TransactionSpace) -> np.ndarray:
    """One int64 key per coordinate row of ``space``: keys order the rows
    lexicographically, and equal keys mean equal rows.

    The key is mixed radix over the cardinalities.  Where the next digit
    would overflow int64, the key so far is replaced by its dense rank
    among the rows, and a column still too wide by the rank of its values,
    so one path serves any cardinality.
    """
    keys, span = np.zeros(len(rows), dtype=np.int64), 1  # keys lie in [0, span)
    for col, radix in zip(rows.T, (a.cardinality for a in space.attributes)):
        if span * radix > _INT64_MAX:
            ranks, keys = np.unique(keys, return_inverse=True)
            span = len(ranks)
            if span * radix > _INT64_MAX:
                values, col = np.unique(col, return_inverse=True)
                radix = len(values)
        keys = keys * radix + col
        span *= radix
    return keys


class TransactionDistribution:
    """A distribution over a transaction space.

    Two forms are supported:

    * ``factored`` -- independent categorical weights per attribute, stored as
      one weight vector per attribute (``None`` meaning uniform);
    * ``sparse`` -- an explicit support, the only form usable at realistic
      scale: ``support`` is an ``(S, d)`` int64 array of coordinate rows in
      the caller's order and ``weights`` the matching probabilities.
      Nothing else is stored: a query that needs the rows in order keys them
      with ``_row_keys`` (one int64 per row, at any cardinality) and sorts
      the keys.
    """

    def __init__(self, space: TransactionSpace, form: str):
        """Hold ``space`` and ``form``; the ``factored`` and ``sparse``
        constructors check and set the fields of their form."""
        self.space = space
        self.form = form

    # -- constructors ------------------------------------------------------

    @classmethod
    def uniform(cls, space: TransactionSpace) -> "TransactionDistribution":
        return cls.factored(space, {})

    @classmethod
    def factored(
        cls, space: TransactionSpace, marginals: Mapping[str, Sequence[float]]
    ) -> "TransactionDistribution":
        """Per-attribute categorical weights; attributes not named are uniform."""
        unknown = set(marginals) - {a.name for a in space.attributes}
        if unknown:
            raise DomainError(f"unknown attributes in marginals: {sorted(unknown)}")
        per_attr: list[np.ndarray | None] = []
        for attr in space.attributes:
            w = marginals.get(attr.name)
            if w is not None:
                w = np.asarray(w, dtype=float)
                if w.shape != (attr.cardinality,):
                    raise DomainError(f"weight vector shape mismatch for {attr.name!r}")
                w = _normalized(w, f"for {attr.name!r}")
            per_attr.append(w)
        dist = cls(space, "factored")
        dist._marginals, dist.support, dist.weights = per_attr, None, None
        return dist

    @classmethod
    def sparse(
        cls,
        space: TransactionSpace,
        support: np.ndarray | Iterable[Sequence[int]],
        weights: np.ndarray | Sequence[float],
    ) -> "TransactionDistribution":
        """Explicit support (an ``(S, d)`` array or coordinate rows) with weights.

        An int64 support array is used as it is, without a copy, so it must
        not change afterwards.
        """
        weights = np.asarray(weights, dtype=float)
        if not hasattr(support, "__len__"):
            support = list(support)
        if weights.ndim != 1 or len(support) != len(weights):
            raise DomainError("support and weights lengths differ")
        if len(support) == 0:
            raise DomainError("sparse support must be nonempty")
        weights = _normalized(weights, "in sparse support")
        # a read-only view: the caller's array is neither copied nor frozen
        points = _as_points(space, support).view()
        points.flags.writeable = False
        keys = _row_keys(points, space)
        ordered = np.sort(keys)
        dup = ordered[1:] == ordered[:-1]
        if dup.any():  # the lexicographically first duplicate
            pt = points[int((keys == ordered[int(dup.argmax())]).argmax())]
            raise DomainError(f"duplicate support point {tuple(int(c) for c in pt)}")
        dist = cls(space, "sparse")
        dist.support, dist.weights = points, weights
        return dist

    # -- queries -----------------------------------------------------------

    def marginal(self, i: int) -> np.ndarray:
        """Marginal weight vector of attribute i (factored form only); a
        uniform one is refused above ``DENSE_LIMIT`` values."""
        if self.form != "factored":
            raise DomainError("marginal() requires the factored form")
        w = self._marginals[i]
        if w is None:
            attr = self.space.attributes[i]
            if attr.cardinality > DENSE_LIMIT:
                raise DomainError(
                    f"uniform marginal of {attr.name!r} refused above {DENSE_LIMIT} values"
                    f" (have {attr.cardinality})"
                )
            return np.full(attr.cardinality, 1.0 / attr.cardinality)
        return w

    def _masses_at(self, points: np.ndarray) -> np.ndarray:
        """Probabilities of validated coordinate rows."""
        if self.form == "sparse":
            # one keying of both row sets, so that ranked keys compare
            S = len(self.support)
            keys = _row_keys(np.concatenate([self.support, points]), self.space)
            order = np.argsort(keys[:S])
            own = keys[:S][order]
            at = np.minimum(np.searchsorted(own, keys[S:]), S - 1)
            return np.where(own[at] == keys[S:], self.weights[order[at]], 0.0)
        mass = np.ones(len(points))
        for i, (w, attr) in enumerate(zip(self._marginals, self.space.attributes)):
            mass *= 1.0 / attr.cardinality if w is None else w[points[:, i]]
        return mass

    def mass_of(self, coords: Sequence[int]) -> float:
        """Probability of a single transaction."""
        point = _as_points(self.space, [coords])
        if self.form == "factored":
            return float(self._masses_at(point)[0])
        # the support holds each point once: narrow it column by column
        at = np.flatnonzero(self.support[:, 0] == point[0, 0])
        for j in range(1, point.shape[1]):
            at = at[self.support[at, j] == point[0, j]]
        return float(self.weights[at[0]]) if len(at) else 0.0

    def to_dense(self) -> np.ndarray:
        """Flattened dense probability vector (cardinality <= DENSE_LIMIT only)."""
        card = self.space.cardinality
        if card > DENSE_LIMIT:
            raise DomainError(
                f"dense representation refused above {DENSE_LIMIT} points (have {card})"
            )
        if self.form == "factored":
            parts = [self.marginal(i) for i in range(len(self.space.attributes))]
            return reduce(np.multiply.outer, parts).reshape(-1)
        dense = np.zeros(card)
        dims = [a.cardinality for a in self.space.attributes]
        dense[np.ravel_multi_index(self.support.T, dims)] = self.weights
        return dense


def estimate(
    space: TransactionSpace, training: Sequence[Transaction]
) -> TransactionDistribution:
    """Empirical (plug-in) distribution over the observed support, whose
    points are in lexicographic order."""
    if len(training) == 0:
        raise DomainError("cannot estimate from an empty training set")
    rows = _as_points(space, [tx.coordinates for tx in training])
    keys = _row_keys(rows, space)
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    counts = np.diff(np.r_[starts, len(rows)])
    return TransactionDistribution.sparse(space, rows[order[starts]], counts / len(rows))


def _same_space(p: TransactionDistribution, q: TransactionDistribution) -> None:
    if p.space.attributes != q.space.attributes:
        raise DomainError("distributions are over different spaces")


def l1_distance(p: TransactionDistribution, q: TransactionDistribution) -> float:
    """Sum over the union of supports of |p(x) - q(x)|; lies in [0, 2].

    The result is clipped to that range, which rounding can leave by an ulp.
    """
    _same_space(p, q)
    if p.form == "sparse" or q.form == "sparse":
        sp, other = (p, q) if p.form == "sparse" else (q, p)
        m = other._masses_at(sp.support)
        # off supp(sp), |0 - other(x)| sums to the mass other puts outside it
        total = np.abs(sp.weights - m).sum() + (1.0 - m.sum())
    else:
        total = np.abs(p.to_dense() - q.to_dense()).sum()
    return float(min(max(total, 0.0), 2.0))


def distribution_from_config(
    space: TransactionSpace, cfg: Mapping
) -> TransactionDistribution:
    """Distribution from a config mapping with a ``form`` discriminator."""
    if not isinstance(cfg, Mapping):
        raise ParseError("distribution config must be a JSON object")
    form = cfg.get("form", "uniform")
    where = f"{form} distribution"
    if form == "uniform":
        return TransactionDistribution.uniform(space)
    if form == "factored":
        weights = lists_by_name(require(cfg, "weights", where), as_number, f"{where} 'weights'")
        return TransactionDistribution.factored(space, weights)
    if form == "sparse":
        weights = list_of(require(cfg, "weights", where), as_number, f"{where} 'weights'")
        support = list_of(
            require(cfg, "support", where),
            lambda row, what: list_of(row, as_int, what),
            f"{where} 'support'",
        )
        return TransactionDistribution.sparse(space, support, weights)
    raise ParseError(f"unknown distribution form {form!r}")
