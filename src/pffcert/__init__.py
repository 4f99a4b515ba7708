"""Primitive free elements with free inverses in GF(q^n)/GF(q): search and
certification via exact arithmetic, character-sum bounds and sieve criteria."""

from .arith import (
    Factorization,
    PartialFactorization,
    W,
    c_bound,
    check_primorial_bound,
    factor,
    factor_cyclotomic,
    moebius,
    omega,
    phi,
    radical,
)
from .charsum import ComplexVal, MulChar, N_formula, add_char_f_order, canonical_add_char, gauss, kloosterman
from .errors import (
    BudgetExceeded,
    DenominatorNonPositive,
    DivisionByZero,
    FactorTimeout,
    InconsistentTables,
    InvalidArgument,
    NonPositiveDelta,
    NotADivisor,
    NotIrreducible,
    NotPrime,
    PffcertError,
    WrongDegree,
    ZeroElement,
)
from .fpoly import (
    DegreeProfile,
    FOrderProfile,
    FPoly,
    degree_profile,
    f_order,
    factor_xn_minus_1,
    is_e_free,
    is_free,
    least_failing_factor,
    min_poly,
    reduction_degree,
    sigma_eval,
)
from .gf import Element, FieldTower, construct_tower, field_for_order, tower_for
from .pff import PffVerdict, brute_N, is_m_free, is_primitive, pff_verdict, search_pff, verify_pff_polynomial
from .sieve import (
    Certificate,
    CertifyConfig,
    EXCEPTIONAL_PAIRS,
    Partition,
    QData,
    SieveAtom,
    SieveDecomposition,
    certify,
    choose_partition,
    compute_Q,
    eval_R,
    eval_decomposition,
    key_ineq,
    lemma_prime_n,
)

__version__ = "0.1.0"
