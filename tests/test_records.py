"""Every validating record checks its fields however it is built: called,
through ``_make``, or through ``_replace``."""

import inspect

import pytest

from bmdlimits.errors import DomainError
from bmdlimits.feasibility import JurisdictionRecord
from bmdlimits.kernels import PoissonModel
from bmdlimits.minimax import FixedZeta, GridZeta, MinimaxQuery
from bmdlimits.parallel import BudgetedTestQuery, OracleBoundQuery
from bmdlimits.passive import PassiveDesign
from bmdlimits.simulate import MalloryStrategy, PassiveParams, PatStrategy, SimScenario
from bmdlimits.space import AttributeSpec, Transaction, TransactionSpace
from bmdlimits.transactions import TransactionDistribution

SPACE = TransactionSpace((AttributeSpec("language", 3), AttributeSpec("review", 2)))
MALLORY = MalloryStrategy.from_mapping({"language": [1]}, 0.5)

# (valid record, a field, a value outside its domain)
CASES = [
    (PoissonModel(2.5), "mean", -1.0),
    (PassiveDesign(0.03, 0.07, 0.005, 0.05, 0.05), "margin", 3.0),
    (OracleBoundQuery(1000, 10, 0.95), "flawed", 1001),
    (BudgetedTestQuery(13, 140, 0.005, 0.95), "altered_fraction", 0.0),
    (FixedZeta(0.5), "value", 2.0),
    (MinimaxQuery(0.01, 0.05, T=2000, beta=0.01, zeta=GridZeta()), "beta", 0.06),
    (AttributeSpec("language", 3), "cardinality", 0),
    (SPACE, "attributes", ()),
    (JurisdictionRecord("AA", "C1", 100), "turnout", -1),
    (MALLORY, "flip_prob", 1.5),
    (PatStrategy("uniform", 30), "test_count", -1),
    # a tester mode that does not exist, or a field its mode does not read
    (PatStrategy("uniform", 30), "mode", "bogus"),
    (PatStrategy("uniform", 1), "scripts", (Transaction((0, 0)),)),
    (PatStrategy("script", 1, scripts=(Transaction((0, 0)),)), "distribution",
     TransactionDistribution.uniform(SPACE)),
    (PassiveParams(0.3, 0.01, 12), "alarm_threshold", 0),
    (
        SimScenario(SPACE, TransactionDistribution.uniform(SPACE), 100, MALLORY,
                    PatStrategy("uniform", 30), trials=10, seed=7, passive=PassiveParams(0.3, 0.01, 12)),
        "seed",
        -1,
    ),
]


# the record's class, then the field for a class's later cases
IDS: list[str] = []
for record, field, _ in CASES:
    name = type(record).__name__
    IDS.append(f"{name}-{field}" if name in IDS else name)


@pytest.mark.parametrize("record,field,bad", CASES, ids=IDS)
def test_every_construction_path_checks(record, field, bad):
    # ``_make`` and ``_replace`` once skipped the checks that ``X(...)`` ran
    cls = type(record)
    assert cls._make(record) == record._replace() == cls(*record) == record
    assert type(cls._make(record)) is type(record._replace()) is cls
    values = record._asdict()
    values[field] = bad
    errors = []
    for build in (
        lambda: cls(**values),
        lambda: cls._make(values.values()),
        lambda: record._replace(**{field: bad}),
    ):
        with pytest.raises(DomainError) as exc:
            build()
        errors.append((type(exc.value), str(exc.value)))
    assert errors == [errors[0]] * 3
    assert list(inspect.signature(cls).parameters) == list(cls._fields)
