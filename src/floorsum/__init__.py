"""Floor-quotient sums of arithmetic functions and the verification
toolkit around them: exact sum evaluators, certified main-term constants,
the sawtooth approximation with its Fejer majorant, a checkable Vaughan
decomposition, exact exponent-pair algebra, and min-max balancing of
error-term exponents.
"""

from .balance import BalanceSolution, LinearExponentForm, evaluate_at, minimize_max, parse_form
from .constants import ConstantBracket, main_constant
from .errors import (
    BracketTooWideError,
    BudgetExceededError,
    DomainError,
    FloorsumError,
    InfeasibleBoxError,
)
from .exponent_pairs import (
    BoundEvaluation,
    ExponentPair,
    a_process,
    b_process,
    eval_former_bound,
    eval_lwy_bound,
    eval_rs_bound,
    eval_vdc_bound,
    eval_word,
    pair,
)
from .expsum import (
    CaseSplit,
    ComparisonReport,
    ExpSumResult,
    ExpSumScenario,
    bound_comparison,
    classify_factorization,
    compute_expsum,
)
from .primes import introot, is_prime, primes_upto
from .floor_sums import (
    Block,
    BlockDecomposition,
    ErrorSeries,
    FitResult,
    SplitSum,
    distinct_quotients,
    error_series,
    fit_exponent,
    geometric_grid,
    psi,
    sum_blocked,
    sum_direct,
    sum_dual,
)
from .sieve import (
    LAMBDA,
    MU,
    ArithmeticTable,
    Kind,
    point_value,
    sieve_table,
    tau,
)
from .vaaler import (
    PsiApproximation,
    VaalerCheck,
    build_approximation,
    check_vaaler_inequality,
    delta_majorant,
    kernel_w,
    psi_star,
)
from .vaughan import (
    CoefficientReport,
    VaughanDecomposition,
    coefficient_bounds_report,
    decompose,
)

__version__ = "0.1.0"
