"""Statistical limits of logic-and-accuracy, parallel, and passive testing of
ballot-marking devices: exact solvers, minimax lower bounds, and a seeded
Monte Carlo adversary simulator.

Every name in ``__all__`` is imported from its module on first use (PEP 562),
so ``import bmdlimits`` loads no numpy.
"""

from importlib import import_module as _import_module

from .errors import DomainError, Infeasible, ParseError

_EXPORTS = {
    "feasibility": (
        "FeasibilitySummary",
        "JurisdictionRecord",
        "load_turnout",
        "passive_feasibility_join",
        "summarize",
    ),
    "kernels": ("poisson_upper_quantile",),
    "minimax": (
        "BoundReport",
        "FixedZeta",
        "GridZeta",
        "MinimaxQuery",
        "cantelli_lambda",
        "detection_threshold",
        "hjw_lower_bound",
        "min_training_sample",
        "table_lower_bounds",
    ),
    "parallel": (
        "BudgetedTestQuery",
        "ElectorateResult",
        "OracleBoundQuery",
        "detection_prob_iid",
        "epsilon_budget",
        "margin_leverage",
        "min_electorate_for_budget",
        "min_tests_iid",
        "oracle_min_samples",
        "session_minutes",
    ),
    "passive": (
        "PassiveDesign",
        "PassiveSolution",
        "alarm_threshold",
        "min_contest_size",
        "passive_power",
        "table_passive",
    ),
    "simulate": (
        "MalloryStrategy",
        "PassiveParams",
        "PatStrategy",
        "SimReport",
        "SimScenario",
        "load_scenario",
        "run_estimation_study",
        "run_parallel_sim",
        "run_passive_sim",
    ),
    "space": (
        "AttributeSpec",
        "Transaction",
        "TransactionSpace",
        "optimistic_preset",
        "realistic_preset",
    ),
    "transactions": (
        "TransactionDistribution",
        "estimate",
        "l1_distance",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["DomainError", "Infeasible", "ParseError", *_MODULE_OF]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule: ``bmdlimits.kernels`` needs no import of its own
        return _import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
