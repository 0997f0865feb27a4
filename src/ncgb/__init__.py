"""Bounded strong Groebner bases for free associative algebras.

Coefficients may come from Z, Q, or Z/m for squarefree m; the monomial
orderings are degree-left-lex, degree-right-lex, and a weighted
degree-left-lex.  All computations are truncated at a word-length bound
and come with an exhaustive reduction-based checker.
"""

from .coeffring import Domain, DomainKind, QQ, ZZ, ext_gcd, lcm_coeff, residue_domain, squarefree_factors
from .engine import (
    GBResult,
    Stats,
    buchberger,
    coeff_criterion,
    completeness_flag,
    gb_equivalent,
    interreduce,
    monomial_basis,
    normal_form,
    verify_strong_basis,
)
from .freealg import (
    Alphabet,
    DEG_LEFT_LEX,
    DEG_RIGHT_LEX,
    FreeAlgebra,
    Ordering,
    Polynomial,
    WEIGHTED_DEG_LEFT_LEX,
)
from .modlift import ModulusPlan, gb_mod_prime, gb_zmod, plan_modulus
from .overlap import g_cofactors, overlaps, s_cofactors, spoly1, spoly2

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "DEG_LEFT_LEX",
    "DEG_RIGHT_LEX",
    "Domain",
    "DomainKind",
    "FreeAlgebra",
    "GBResult",
    "ModulusPlan",
    "Ordering",
    "Polynomial",
    "QQ",
    "Stats",
    "WEIGHTED_DEG_LEFT_LEX",
    "ZZ",
    "buchberger",
    "coeff_criterion",
    "completeness_flag",
    "ext_gcd",
    "g_cofactors",
    "gb_equivalent",
    "gb_mod_prime",
    "gb_zmod",
    "interreduce",
    "lcm_coeff",
    "monomial_basis",
    "normal_form",
    "overlaps",
    "plan_modulus",
    "residue_domain",
    "s_cofactors",
    "spoly1",
    "spoly2",
    "squarefree_factors",
    "verify_strong_basis",
]
