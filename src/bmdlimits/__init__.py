"""Statistical limits of logic-and-accuracy, parallel, and passive testing of
ballot-marking devices: exact solvers, minimax lower bounds, and a seeded
Monte Carlo adversary simulator."""

from .errors import DomainError, Infeasible, ParseError
from .feasibility import (
    FeasibilitySummary,
    JurisdictionRecord,
    load_turnout,
    passive_feasibility_join,
    summarize,
)
from .kernels import (
    PoissonModel,
    no_replacement_miss_prob,
    poisson_sf,
    poisson_upper_quantile,
)
from .minimax import (
    BoundReport,
    FixedZeta,
    GridZeta,
    MinimaxQuery,
    cantelli_lambda,
    detection_threshold,
    hjw_lower_bound,
    min_training_sample,
    table_lower_bounds,
)
from .parallel import (
    BudgetedTestQuery,
    ElectorateResult,
    OracleBoundQuery,
    detection_prob_iid,
    epsilon_budget,
    margin_leverage,
    min_electorate_for_budget,
    min_tests_iid,
    min_tests_with_estimation_error,
    oracle_min_samples,
    session_minutes,
)
from .passive import (
    PassiveDesign,
    PassiveSolution,
    alarm_threshold,
    min_contest_size,
    passive_power,
    table_passive,
)
from .simulate import (
    MalloryStrategy,
    PassiveParams,
    PatStrategy,
    SimReport,
    SimScenario,
    load_scenario,
    run_estimation_study,
    run_parallel_sim,
    run_passive_sim,
)
from .transactions import (
    AttributeSpec,
    Transaction,
    TransactionDistribution,
    TransactionSpace,
    cardinality,
    estimate,
    l1_distance,
    optimistic_preset,
    realistic_preset,
)

__version__ = "0.1.0"
