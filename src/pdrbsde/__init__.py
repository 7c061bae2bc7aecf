"""Exact solver and verification lab for doubly reflected backward equations
with predictable barriers on finite filtered probability spaces."""

from .config import (
    ConfigError,
    KindSpec,
    MarkSpec,
    ScenarioConfig,
    SolverParams,
    config_from_dict,
    load_config,
)
from .prob_space import (
    FilteredSpace,
    SpaceError,
    build_space,
    cond_expect,
    expectation,
    is_measurable,
)
from .processes import (
    LadlagProcess,
    ProcessError,
    bracket,
    brownian_process,
    constant_process,
    from_cadlag_sequence,
    from_slots,
    is_martingale,
    is_predictable_strong_supermartingale,
    ito_integral,
    jumps,
    orthogonal_decompose,
    predictable_projection,
    running_sum,
)
from .snell import (
    RbsdeQuintuple,
    SnellEnumerationError,
    mertens_decompose,
    pre_operator,
    snell_bruteforce,
    snell_envelope_slots,
    stopping_rule_count,
)
from .drbsde import (
    BarrierPair,
    DivergenceError,
    NotAFixedPointError,
    PicardTrace,
    SolutionSeptuple,
    assemble_solution,
    dynkin_recursion,
    mokobodzki_certificate,
    minimality_check,
    picard_coupled,
    shift_barriers,
    solve_driver_process,
)
from .verify import mutually_singular, verify_drbsde_solution, verify_rbsde_solution
from .driver_solver import (
    ContractionError,
    ContractionParams,
    LipschitzDriver,
    beta_norm_h2,
    beta_norm_m2,
    beta_norm_s2p,
    linear_driver,
    solve_general,
)
from .calculus_checks import (
    ChangeOfVariablesReport,
    EstimateReport,
    OptionalSemimartingale,
    Polynomial,
    apriori_estimate_check,
    corollary_expansion,
    galchouk_lenglart_check,
)
from .scenario import Scenario, generate_corpus, realize

__version__ = "0.1.0"
