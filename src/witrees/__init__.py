"""Exact-arithmetic engine for weakly increasing trees on multisets:
enumeration, bijections, grammar calculus, gamma expansion, generating
functions, and a mechanical verification battery for the identities tying
them together."""

from .binary import (
    BStatVector,
    WBTree,
    bstats,
    format_btree,
    modified_preorder,
    orbit,
    parse_btree,
    swap_branches,
)
from .counts import fish_count, jaco2_count, plane_tree_count, six_term_count, ternary_identity
from .enumeration import SizeBoundError, enumerate_trees, iter_multisets, iter_trees
from .gamma import GammaTable, gamma_expand, multiset_schett, reduced_schett
from .grammar import (
    GrammarRules,
    four_var_coeffs,
    four_var_poly,
    grammar_derive,
    schett_coeffs,
    schett_poly,
)
from .jacobi import jacobi_taylor
from .mpoly import MPoly
from .multiset import Multiset, count_trees, parse_multiset, set_multiset, uniform_multiset
from .realroots import RootReport, real_rooted
from .sequences import euler_numbers
from .series import TruncSeries, check_algebraic_eq, lagrange_coeff, plane_gf
from .transforms import hat, psi, rho, rho_inv, theta, tilde
from .trees import StatVector, WTree, format_tree, parse_tree, stats
from .verify import CheckResult, run_suites

__version__ = "0.1.0"

__all__ = [
    "BStatVector",
    "CheckResult",
    "GammaTable",
    "GrammarRules",
    "MPoly",
    "Multiset",
    "RootReport",
    "SizeBoundError",
    "StatVector",
    "TruncSeries",
    "WBTree",
    "WTree",
    "bstats",
    "check_algebraic_eq",
    "count_trees",
    "enumerate_trees",
    "euler_numbers",
    "fish_count",
    "format_btree",
    "format_tree",
    "four_var_coeffs",
    "four_var_poly",
    "gamma_expand",
    "grammar_derive",
    "hat",
    "iter_multisets",
    "iter_trees",
    "jaco2_count",
    "jacobi_taylor",
    "lagrange_coeff",
    "modified_preorder",
    "multiset_schett",
    "orbit",
    "parse_btree",
    "parse_multiset",
    "parse_tree",
    "plane_gf",
    "plane_tree_count",
    "psi",
    "real_rooted",
    "reduced_schett",
    "rho",
    "rho_inv",
    "run_suites",
    "schett_coeffs",
    "schett_poly",
    "set_multiset",
    "six_term_count",
    "stats",
    "swap_branches",
    "ternary_identity",
    "theta",
    "tilde",
    "uniform_multiset",
]
