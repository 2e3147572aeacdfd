"""resbvp: operator toolkit for resonant fractional three-point BVPs.

Numerical machinery for boundary value problems

    D^alpha x = f(t, x, D^(alpha-1) x),   1 < alpha <= 2,  t in [0, 1],
    I^(2-alpha) x(0) = 0,                 x(1) = A x(xi),

at resonance (I - xi^(alpha-1) A singular), on finite truncations:
Riemann-Liouville calculus on uniform grids, the pseudoinverse splitting
of the boundary operator, projection-scheme identities, existence
condition checkers, and a damped fixed-point solver.
"""

from .conditions import (
    ConditionsReport,
    GrowthSpec,
    check_all,
    check_growth_bound,
    check_growth_margins,
    probe_kernel_sign,
    probe_large_trace_defect,
)
from .fracops import (
    GridFn,
    Order,
    PowerFn,
    cumulative_integral,
    frac_derivative,
    frac_integral,
    frac_integral_at,
    frac_integral_power,
    gamma,
    power_rule,
)
from .linops import (
    PenroseCheck,
    PinvResult,
    check_penrose,
    load_matrix_csv,
    operator_norm,
    pinv,
    save_matrix_csv,
)
from .problems import (
    BUILTINS,
    GoldenCheck,
    Section4Report,
    build_section4,
    check_special_conditions_fail,
    section4_growth,
    verify_section4,
)
from .resonance import (
    DomainElement,
    NonResonantError,
    ProblemSpec,
    ResonanceData,
    StructureReport,
    boundary_functional,
    boundary_functional_power,
    build_resonance,
    derivative_trace,
    evaluate,
    partial_inverse,
    project_kernel,
    project_obstruction,
    split_obstruction,
    verify_structure,
)
from .solver import (
    ResidualBlock,
    RhsEvaluationError,
    SolveOptions,
    SolveReport,
    apply_rhs,
    apriori_bound,
    eval_rhs,
    fixed_point_map,
    oriented_lift,
    residuals,
    solve,
)

__version__ = "0.1.0"
