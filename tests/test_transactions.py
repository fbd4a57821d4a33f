import hashlib
import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmdlimits.errors import DomainError, ParseError
from bmdlimits.space import (
    AttributeSpec,
    Transaction,
    TransactionSpace,
    load_space,
    optimistic_preset,
    realistic_preset,
    space_from_config,
)
from bmdlimits.transactions import (
    DENSE_LIMIT,
    TransactionDistribution,
    _as_points,
    _row_keys,
    distribution_from_config,
    estimate,
    l1_distance,
)

#: a float coordinate that cannot be cast to int64 is refused before the cast
NO_CAST_WARNING = pytest.mark.filterwarnings("error::RuntimeWarning")


def small_space() -> TransactionSpace:
    return TransactionSpace((AttributeSpec("a", 2), AttributeSpec("b", 2)))


class TestCardinality:
    def test_optimistic_exact(self):
        assert optimistic_preset().cardinality == 6_144_000

    def test_realistic_magnitude(self):
        c = realistic_preset().cardinality
        # exact big-integer product; 47-digit order of magnitude
        assert c == (
            20 * 4 * 13 * 20 * 10 * 2**20 * 2**20 * 2 * 5**20
            * 4 * 4 * 2 * 4 * 10 * 2**20 * 2 * 2**20
        )
        assert math.floor(math.log10(c)) == 47
        assert abs(c / 1.2e47 - 1.0) < 0.05

    def test_single_unit_attribute(self):
        assert TransactionSpace((AttributeSpec("x", 1),)).cardinality == 1

    def test_invalid_attribute(self):
        with pytest.raises(DomainError):
            AttributeSpec("x", 0)
        with pytest.raises(DomainError):
            TransactionSpace(())
        with pytest.raises(DomainError):
            TransactionSpace((AttributeSpec("x", 2), AttributeSpec("x", 3)))


class TestDistributionConstruction:
    def test_factored_mass_must_normalize(self):
        space = small_space()
        with pytest.raises(DomainError):
            TransactionDistribution.factored(space, {"a": [0.5, 0.4]})
        with pytest.raises(DomainError):
            TransactionDistribution.factored(space, {"a": [1.5, -0.5]})
        with pytest.raises(DomainError):
            TransactionDistribution.factored(space, {"zz": [0.5, 0.5]})

    def test_factored_nan_weight(self):
        # a NaN total once passed the tolerance check: every weight became NaN
        with pytest.raises(DomainError, match="sum to nan"):
            TransactionDistribution.factored(small_space(), {"a": [float("nan"), 0.5]})

    def test_sparse_validation(self):
        space = small_space()
        with pytest.raises(DomainError):
            TransactionDistribution.sparse(space, [(0, 0), (0, 0)], [0.5, 0.5])
        with pytest.raises(DomainError):
            TransactionDistribution.sparse(space, [(0, 2)], [1.0])
        with pytest.raises(DomainError):
            TransactionDistribution.sparse(space, [(0, 0)], [0.9])

    def test_sparse_nan_weight(self):
        with pytest.raises(DomainError, match="sum to nan"):
            TransactionDistribution.sparse(small_space(), [(0, 0), (1, 0)], [float("nan"), 1.0])

    def test_mass_of(self):
        space = small_space()
        d = TransactionDistribution.factored(space, {"a": [0.75, 0.25]})
        assert d.mass_of((0, 1)) == pytest.approx(0.375)
        s = TransactionDistribution.sparse(space, [(1, 1)], [1.0])
        assert s.mass_of((1, 1)) == 1.0
        assert s.mass_of((0, 0)) == 0.0

    def test_dense_refused_at_scale(self):
        d = TransactionDistribution.uniform(realistic_preset())
        with pytest.raises(DomainError):
            d.to_dense()

    def test_dense_sums_to_one(self):
        d = TransactionDistribution.factored(small_space(), {"a": [0.6, 0.4]})
        dense = d.to_dense()
        assert dense.shape == (4,)
        assert dense.sum() == pytest.approx(1.0, abs=1e-12)
        assert dense[0] == pytest.approx(0.3)


class TestEstimate:
    def test_point_training(self):
        space = small_space()
        d = estimate(space, [Transaction((0, 1))] * 5)
        assert d.support.tolist() == [[0, 1]]
        assert d.weights[0] == 1.0

    def test_counting(self):
        space = small_space()
        d = estimate(space, [Transaction((0, 0))] * 3 + [Transaction((1, 1))])
        assert d.support.tolist() == [[0, 0], [1, 1]]
        assert list(d.weights) == [0.75, 0.25]

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            estimate(small_space(), [])

    def test_mass_one_within_tolerance(self):
        space = small_space()
        rng = np.random.default_rng(11)
        training = [Transaction(tuple(row)) for row in rng.integers(0, 2, size=(257, 2)).tolist()]
        d = estimate(space, training)
        assert abs(float(np.sum(d.weights)) - 1.0) < 1e-12


def sparse_dists(draw, space, max_support=4):
    n = draw(st.integers(min_value=1, max_value=max_support))
    cells = [(a, b) for a in range(2) for b in range(2)]
    support = draw(
        st.lists(st.sampled_from(cells), min_size=n, max_size=n, unique=True)
    )
    raw = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0), min_size=len(support), max_size=len(support)
        )
    )
    total = sum(raw)
    return TransactionDistribution.sparse(space, support, [w / total for w in raw])


@st.composite
def sparse_pair(draw):
    space = small_space()
    return sparse_dists(draw, space), sparse_dists(draw, space), sparse_dists(draw, space)


class TestL1Distance:
    def test_identity(self):
        d = TransactionDistribution.uniform(small_space())
        assert l1_distance(d, d) == 0.0

    def test_disjoint_point_masses(self):
        space = small_space()
        p = TransactionDistribution.sparse(space, [[0, 0]], [1.0])
        q = TransactionDistribution.sparse(space, [[1, 1]], [1.0])
        assert l1_distance(p, q) == 2.0

    def test_direct_sum(self):
        space = TransactionSpace((AttributeSpec("a", 2),))
        p = TransactionDistribution.factored(space, {"a": [0.6, 0.4]})
        q = TransactionDistribution.factored(space, {"a": [0.5, 0.5]})
        assert l1_distance(p, q) == pytest.approx(0.2, abs=1e-12)

    def test_mismatched_spaces(self):
        p = TransactionDistribution.uniform(small_space())
        q = TransactionDistribution.uniform(TransactionSpace((AttributeSpec("a", 2),)))
        with pytest.raises(DomainError):
            l1_distance(p, q)

    def test_sparse_vs_factored_matches_dense(self):
        space = small_space()
        p = TransactionDistribution.sparse(space, [(0, 0), (1, 1)], [0.7, 0.3])
        q = TransactionDistribution.factored(space, {"a": [0.6, 0.4], "b": [0.5, 0.5]})
        direct = l1_distance(p, q)
        dense = float(np.abs(p.to_dense() - q.to_dense()).sum())
        assert direct == pytest.approx(dense, abs=1e-12)

    @given(sparse_pair())
    @settings(max_examples=150)
    def test_metric_properties(self, dists):
        p, q, r = dists
        dpq = l1_distance(p, q)
        assert 0.0 <= dpq <= 2.0
        assert dpq == pytest.approx(l1_distance(q, p), abs=1e-12)
        assert dpq <= l1_distance(p, r) + l1_distance(r, q) + 1e-12


# -- reference implementations ---------------------------------------------
#
# Point-at-a-time versions of the sparse queries, kept as the oracle that the
# array-backed implementation must agree with: exactly for lookups, counts and
# dense vectors, to rounding for L1 sums.


def ref_points(d: TransactionDistribution) -> list[tuple[int, ...]]:
    return [tuple(row) for row in d.support.tolist()]


def ref_mass_of(d: TransactionDistribution, coords) -> float:
    if d.form == "sparse":
        for pt, w in zip(ref_points(d), d.weights):
            if pt == tuple(coords):
                return float(w)
        return 0.0
    mass = 1.0
    for i, c in enumerate(coords):
        mass *= float(d.marginal(i)[c])
    return mass


def ref_l1(p: TransactionDistribution, q: TransactionDistribution) -> float:
    if p.form == "sparse" and q.form == "sparse":
        masses: dict[tuple[int, ...], list[float]] = {}
        for pt, w in zip(ref_points(p), p.weights):
            masses.setdefault(pt, [0.0, 0.0])[0] = float(w)
        for pt, w in zip(ref_points(q), q.weights):
            masses.setdefault(pt, [0.0, 0.0])[1] = float(w)
        return float(sum(abs(a - b) for a, b in masses.values()))
    sp, other = (p, q) if p.form == "sparse" else (q, p)
    on_support = other_on_support = 0.0
    for pt, w in zip(ref_points(sp), sp.weights):
        m = ref_mass_of(other, pt)
        on_support += abs(float(w) - m)
        other_on_support += m
    return float(on_support + (1.0 - other_on_support))


def ref_estimate(training: list[tuple[int, ...]]) -> tuple[list, list[float]]:
    counts = Counter(training)
    support = sorted(counts)
    # the sparse constructor renormalizes the relative frequencies
    freq = np.array([counts[pt] / len(training) for pt in support])
    return [list(pt) for pt in support], (freq / freq.sum()).tolist()


def ref_to_dense(d: TransactionDistribution) -> np.ndarray:
    dims = [a.cardinality for a in d.space.attributes]
    dense = np.zeros(math.prod(dims))
    for pt, w in zip(ref_points(d), d.weights):
        dense[int(np.ravel_multi_index(pt, dims))] = w
    return dense


@st.composite
def small_spaces(draw):
    cards = draw(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3))
    return TransactionSpace(tuple(AttributeSpec(f"x{i}", c) for i, c in enumerate(cards)))


def points_of(space: TransactionSpace):
    return st.tuples(*(st.integers(0, a.cardinality - 1) for a in space.attributes))


def normalized(draw, n: int) -> list[float]:
    raw = draw(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n))
    total = sum(raw)
    return [w / total for w in raw]


@st.composite
def sparse_over(draw, space: TransactionSpace, pool=None):
    """A sparse distribution on ``space``, its points drawn from ``pool``
    when one is given, so that two draws can share support points."""
    points = st.sampled_from(pool) if pool else points_of(space)
    support = draw(st.lists(points, min_size=1, max_size=12, unique=True))
    return TransactionDistribution.sparse(space, support, normalized(draw, len(support)))


@st.composite
def overlapping_pair(draw, space=None):
    space = space or draw(small_spaces())
    pool = draw(st.lists(points_of(space), min_size=1, max_size=10, unique=True))
    return draw(sparse_over(space, pool)), draw(sparse_over(space, pool)), pool


@st.composite
def factored_over(draw, space: TransactionSpace):
    marginals = {}
    for a in space.attributes:
        if draw(st.booleans()):
            marginals[a.name] = normalized(draw, a.cardinality)
    return TransactionDistribution.factored(space, marginals)


class TestAgainstReference:
    @given(overlapping_pair())
    @settings(max_examples=100)
    def test_mass_of(self, case):
        p, _, pool = case
        for pt in pool:
            assert p.mass_of(pt) == ref_mass_of(p, pt)

    @given(overlapping_pair())
    @settings(max_examples=100)
    def test_l1_sparse_sparse(self, case):
        p, q, _ = case
        assert l1_distance(p, q) == pytest.approx(ref_l1(p, q), abs=1e-12)
        assert l1_distance(q, p) == pytest.approx(ref_l1(q, p), abs=1e-12)

    @given(st.data())
    @settings(max_examples=100)
    def test_l1_sparse_factored(self, data):
        space = data.draw(small_spaces())
        p = data.draw(sparse_over(space))
        f = data.draw(factored_over(space))
        assert l1_distance(p, f) == pytest.approx(ref_l1(p, f), abs=1e-12)
        assert l1_distance(f, p) == pytest.approx(ref_l1(f, p), abs=1e-12)
        for pt in ref_points(p):
            assert f.mass_of(pt) == ref_mass_of(f, pt)

    @given(st.data())
    @settings(max_examples=100)
    def test_estimate(self, data):
        space = data.draw(small_spaces())
        training = data.draw(st.lists(points_of(space), min_size=1, max_size=40))
        d = estimate(space, [Transaction(pt) for pt in training])
        support, weights = ref_estimate(training)
        assert d.support.tolist() == support
        assert d.weights.tolist() == weights

    @given(st.data())
    @settings(max_examples=100)
    def test_to_dense(self, data):
        space = data.draw(small_spaces())
        d = data.draw(sparse_over(space))
        assert np.array_equal(d.to_dense(), ref_to_dense(d))

    @given(overlapping_pair(realistic_preset()))
    @settings(max_examples=50)
    def test_realistic_preset(self, case):
        # the preset's cardinality (~1e47) overflows int64: no raveled index exists
        p, q, pool = case
        for pt in pool:
            assert p.mass_of(pt) == ref_mass_of(p, pt)
        assert l1_distance(p, q) == pytest.approx(ref_l1(p, q), abs=1e-12)
        training = [pt for pt in pool for _ in range(1 + pt[0] % 3)]
        d = estimate(p.space, [Transaction(pt) for pt in training])
        support, weights = ref_estimate(training)
        assert d.support.tolist() == support
        assert d.weights.tolist() == weights


@st.composite
def keyed_rows(draw):
    """Rows over a space whose cardinalities mix small, mid-size (products
    past 2**63, so keys are re-ranked) and above 2**63 (a ranked column),
    each coordinate drawn from a few values so that rows repeat."""
    cards = draw(
        st.lists(
            st.one_of(
                st.integers(1, 6), st.integers(2**20, 2**40), st.integers(2**63, 2**70)
            ),
            min_size=1,
            max_size=5,
        )
    )
    space = TransactionSpace(tuple(AttributeSpec(f"x{i}", c) for i, c in enumerate(cards)))
    columns = [
        draw(st.lists(st.integers(0, min(c, 2**63) - 1), min_size=1, max_size=3)) for c in cards
    ]
    point = st.tuples(*(st.sampled_from(col) for col in columns))
    return space, draw(st.lists(point, min_size=1, max_size=30))


class TestRowKeys:
    @given(keyed_rows())
    @settings(max_examples=200)
    def test_keys_order_rows_as_tuples(self, case):
        space, rows = case
        keys = _row_keys(_as_points(space, rows), space)
        assert keys.dtype == np.int64
        assert [rows[i] for i in np.argsort(keys, kind="stable")] == sorted(rows)
        for i in range(len(rows)):
            assert ((keys == keys[i]) == [r == rows[i] for r in rows]).all()

    @pytest.mark.parametrize(
        "space",
        [
            realistic_preset(),
            TransactionSpace((AttributeSpec("x", 2**70), AttributeSpec("y", 2**70))),
        ],
        ids=["realistic", "two-wide-columns"],
    )
    def test_ranked_keys(self, space):
        hi = [min(a.cardinality, 2**63) - 1 for a in space.attributes]
        rows = [tuple(hi), tuple(0 for _ in hi), tuple(hi[:-1]) + (0,), (0,) + tuple(hi[1:])]
        keys = _row_keys(_as_points(space, rows), space)
        assert [rows[i] for i in np.argsort(keys)] == sorted(rows)
        assert len(set(keys.tolist())) == 4


def pinned_case(space: TransactionSpace, seed: int) -> tuple[str, str, str]:
    """The two L1 distances between a seeded sparse law and a plug-in
    estimate, and a digest of the estimate and of point masses."""
    rng = np.random.default_rng(seed)
    d = len(space.attributes)
    hi = np.array([min(a.cardinality, 2**62) for a in space.attributes], dtype=np.int64)
    pool = (rng.random((60, d)) * hi).astype(np.int64)
    pool[:, 0] = rng.integers(0, min(3, hi[0]), size=60)  # ties in the first column
    pool = np.unique(pool, axis=0)
    rng.shuffle(pool)
    p = TransactionDistribution.sparse(space, pool[:40], rng.dirichlet(np.ones(40)))
    draws = pool[rng.integers(15, len(pool), size=300)]
    e = estimate(space, [Transaction(tuple(int(c) for c in r)) for r in draws])
    masses = [p.mass_of(tuple(int(c) for c in r)) for r in pool]
    blob = e.support.tobytes() + e.weights.tobytes() + np.array(masses).tobytes()
    return repr(l1_distance(p, e)), repr(l1_distance(e, p)), hashlib.sha256(blob).hexdigest()[:16]


class TestPinnedOutputs:
    # computed when the lookup index held big-endian byte keys; the integer
    # keys must give the same bytes
    def test_realistic_preset(self):
        assert pinned_case(realistic_preset(), 21) == (
            "1.4384498626013626", "1.4384498626013626", "f5623fee2fe75524"
        )

    def test_wide_attribute(self):
        space = TransactionSpace(
            (AttributeSpec("x", 3), AttributeSpec("y", 2**64), AttributeSpec("z", 2**40))
        )
        assert pinned_case(space, 21) == (
            "1.3348461769060158", "1.3348461769060156", "ef3c4f60cd31d645"
        )


class TestSparseArrays:
    def test_int64_support_is_not_copied(self):
        rows = np.array([[0, 1], [1, 0]], dtype=np.int64)
        d = TransactionDistribution.sparse(small_space(), rows, [0.5, 0.5])
        assert np.shares_memory(d.support, rows)
        assert not d.support.flags.writeable
        assert rows.flags.writeable

    def test_support_keeps_caller_order(self):
        d = TransactionDistribution.sparse(small_space(), [(1, 1), (0, 1), (1, 0)], [0.5, 0.3, 0.2])
        assert d.support.tolist() == [[1, 1], [0, 1], [1, 0]]
        assert [d.mass_of(pt) for pt in [(0, 1), (1, 0), (1, 1), (0, 0)]] == [0.3, 0.2, 0.5, 0.0]

    @pytest.mark.parametrize(
        "support",
        [
            [(0.5, 1)],  # not an integer
            [(0, 1, 0)],  # too many coordinates
            [(0,)],  # too few
            [(2**70, 0)],  # beyond int64
            [(-1, 0)],
            [(0, 1), (0,)],  # ragged
            [(2**63, 0)],
            pytest.param([(1e300, 0)], marks=NO_CAST_WARNING),
            pytest.param([(float("nan"), 0)], marks=NO_CAST_WARNING),
            pytest.param([(float("inf"), 0)], marks=NO_CAST_WARNING),
            ["10"],  # a string row
            [("1", "0")],
            [(b"1", 0)],
            [None],
            [(None, 0)],
            [[(0,), (1,)]],  # rows nested three deep
            [[[0, 1], [1, 0]]],
            [(c for c in (0, 1))],  # a generator row
            [{0: 1, 1: 0}],  # unordered rows
            [{0, 1}],
            [1, 0],  # scalars, not rows
            np.array([1, 0]),
            np.zeros((1, 2, 1)),
        ],
    )
    def test_bad_points_rejected(self, support):
        with pytest.raises(DomainError):
            _as_points(small_space(), support)
        with pytest.raises(DomainError):
            TransactionDistribution.sparse(small_space(), support, [1.0] * len(support))

    def test_integral_floats_accepted(self):
        d = TransactionDistribution.sparse(small_space(), [(1.0, 0.0)], [1.0])
        assert d.support.tolist() == [[1, 0]]

    @pytest.mark.parametrize(
        "support",
        [
            [(np.float64(1.0), 0)],
            [(True, False)],
            [(np.int64(1), np.int32(0))],  # numpy scalars
            [np.array([1, 0])],
            [[1, 0]],
            ((1, 0),),
            [range(1, -1, -1)],
            np.array([[1, 0]], dtype=np.uint64),
            np.array([[1.0, 0.0]]),
            np.array([[1, 0]], dtype=object),
        ],
    )
    def test_good_points_accepted(self, support):
        d = TransactionDistribution.sparse(small_space(), support, [1.0])
        assert d.support.tolist() == [[1, 0]] and d.support.dtype == np.int64

    def test_duplicate_named(self):
        with pytest.raises(DomainError, match=r"duplicate support point \(1, 0\)"):
            TransactionDistribution.sparse(small_space(), [(1, 0), (0, 0), (1, 0)], [0.2, 0.4, 0.4])

    @pytest.mark.parametrize(
        "space,big",
        [
            (realistic_preset(), 19),
            (TransactionSpace((AttributeSpec("x", 2**64), AttributeSpec("y", 3))), 2**62),
        ],
        ids=["realistic-rerank", "wide-column"],
    )
    def test_first_duplicate_named_on_ranked_keys(self, space, big):
        # both spaces' keys are ranked: the message still names the
        # lexicographically first duplicate, not the first one seen
        ones = (1,) * (len(space.attributes) - 1)
        late, early, other = (big, *ones), (5, *ones), (big, 0, *ones[1:])
        with pytest.raises(DomainError, match=re.escape(f"duplicate support point {early}")):
            TransactionDistribution.sparse(space, [late, other, early, late, early], [0.2] * 5)

    def test_l1_stays_in_range(self):
        # disjoint supports whose weights, summed left to right, come to 2.0000000000000004
        a = np.array([0.8097107759127777, 0.5604759520061858, 0.2884212144312105])
        b = np.array([0.4128963426808927, 0.8181209709709104, 0.6265064624197535])
        space = TransactionSpace((AttributeSpec("a", 6),))
        p = TransactionDistribution.sparse(space, [(0,), (1,), (2,)], a / a.sum())
        q = TransactionDistribution.sparse(space, [(3,), (4,), (5,)], b / b.sum())
        assert l1_distance(p, q) == l1_distance(q, p) == 2.0
        uniform = TransactionDistribution.uniform(small_space())
        assert l1_distance(uniform, uniform) == 0.0


class TestConfig:
    def test_preset_roundtrip(self):
        space = space_from_config({"preset": "optimistic"})
        assert space == optimistic_preset()

    def test_inline_attributes(self):
        space = space_from_config(
            {"attributes": [{"name": "x", "cardinality": 3}, {"name": "y", "cardinality": 2}]}
        )
        assert space.cardinality == 6

    def test_unknown_preset(self):
        with pytest.raises(ParseError):
            space_from_config({"preset": "pessimistic"})
        with pytest.raises(ParseError):
            space_from_config({})

    def test_distribution_forms(self):
        space = small_space()
        assert distribution_from_config(space, {}).form == "factored"
        d = distribution_from_config(
            space, {"form": "sparse", "support": [[0, 1]], "weights": [1.0]}
        )
        assert d.support.tolist() == [[0, 1]]
        with pytest.raises(ParseError):
            distribution_from_config(space, {"form": "nope"})

    def test_load_space_file(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"preset": "optimistic"}))
        assert load_space(str(path)) == optimistic_preset()
