"""Exact invariants of congruence subgroups of SL2 over concrete Dedekind
domains: cusp amplitudes, quasi-amplitudes, level, quasi-level, order
ideal, and congruence screens for the modular group and SL2(k[t])."""

from .analyzer import (
    AnalysisReport,
    Caps,
    CuspData,
    FramedSubgroup,
    InternalCheckError,
    TranslationSubspace,
    amplitude_at,
    amplitude_extrema_check,
    amplitude_join_search,
    analyze,
    build_example,
    cusp_split_check,
    cusps,
    frame_from_group,
    frame_subgroup,
    level,
    level_chain,
    level_index_divisibility_check,
    order_ideal,
    quasi_amplitude_at,
    quasi_level,
    quasi_level_ideal_check,
    screen_translation_subspace,
    standard_screen_subspace,
    unit_square_closure_check,
)
from .domains import (
    CapExceeded,
    ConditionLReport,
    Domain,
    Ideal,
    ParseError,
    PrimeFactorization,
    condition_L,
    crt_select,
    factor_ideal,
    ideal_arith,
    ideal_pow,
    parse_domain,
    residue_norm,
)
from .matgroups import (
    FinMatGroup,
    Mat2,
    cube_law_check,
    full_sl2,
    make_generator,
    principal_congruence_image,
    projective_center_is_trivial,
    sl2_order_formula,
)
from .modular import (
    CuspSplit,
    PermRep,
    coset_permrep,
    cusp_split,
    exact_congruence_test,
    index_level_checks,
    larcher_check,
    low_index_enumerate,
    parse_permrep,
    psl2_group,
    screen_permrep,
)
from .quotients import (
    AdditiveSubgroup,
    QuotientRing,
    additive_closure,
    build_quotient,
    ideal_image,
    largest_ideal_inside,
    local_decompose,
)

__version__ = "0.1.0"
