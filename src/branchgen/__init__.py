"""Analytic prediction and tuning of constructor distributions for
size-bounded random generators over algebraic data types."""

from .adt import (
    ADTUniverse,
    AdtError,
    CDG,
    CdgEdge,
    ConstructorDecl,
    Field,
    ParseError,
    TypeDecl,
    build_cdg,
    load_probmap,
    parse_universe,
    print_universe,
    probmap_to_json,
    renormalize_probmap,
    resolve_constructor,
    terminal_constructors,
    uniform_probmap,
    universe_hash,
    validate_probmap,
)
from .costs import (
    ConstraintError,
    CostFunction,
    chi_square,
    only_cost,
    only_types_cost,
    parse_cost_expression,
    uniform_cost,
    weighted_cost,
    without_cost,
    without_types_cost,
)
from .prediction import (
    ConstructorExpectation,
    PredictionReport,
    extinction_probability,
    predict_constructors,
    predict_foreign,
    prediction_report_json,
    star_probs,
)
from .sampling import (
    BudgetExhausted,
    SampleStats,
    Value,
    empirical_stats,
    histogram_csv,
    sample_derive,
    sample_dragen,
    sample_megadeth,
    sample_values,
    value_to_json,
    value_to_sexp,
)
from .search import (
    SearchConfig,
    SearchTrace,
    derive_generator_with_trace,
    neighbors,
    optimize,
)
from .spec import (
    STRATEGIES,
    STRATEGY_DERIVE,
    STRATEGY_DRAGEN,
    STRATEGY_MEGADETH,
    GenSpec,
    adhoc_genspec,
)

__version__ = "0.1.0"
