"""Exact coefficients of Catalan states of lattice crossings.

The expansion of the m x n lattice crossing in the Kauffman bracket skein
module attaches a Laurent polynomial C(A) to every crossingless connection
(Catalan state) of its boundary.  This package computes those coefficients
exactly: a plucking-polynomial tree formula for states with a return-free
edge, removable-arc and vertical-factorization rewrites for the rest, plus
a brute-force bracket oracle every shortcut is checked against.
"""

from .coeff import (
    coefficient,
    lm3_closed_form,
    vertical_factor_parts,
)
from .kauffman import BudgetError, oracle_coefficient
from .laurent import q_binomial, render
from .maxseq import beta, max_sequence
from .states import (
    Connection,
    enumerate_catalan,
    is_realizable,
    parse_state,
    render_state,
)
from .trees import Node, parse_tree, plucking, render_tree

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "Connection",
    "Node",
    "beta",
    "coefficient",
    "enumerate_catalan",
    "is_realizable",
    "lm3_closed_form",
    "max_sequence",
    "oracle_coefficient",
    "parse_state",
    "parse_tree",
    "plucking",
    "q_binomial",
    "render",
    "render_state",
    "render_tree",
    "vertical_factor_parts",
    "__version__",
]
