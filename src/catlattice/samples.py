"""Hand-built states and trees with known closed-form values.

These constructions are exercised throughout the test-suite and the demo
scripts: a fan-shaped tree whose plucking polynomial collapses to a short
product, a tower of stacked side returns with a linear beta formula, and a
frozen state whose coefficient splits off a two-arc local family.
"""

from __future__ import annotations

from .coeff import LocalFamily, iter_vertical_factorizations
from .states import Connection, new_connection, parse_state
from .trees import Node


def fan_tree(k: int) -> Node:
    """Root with 2k+2 leaves whose delays climb toward both ends.

    The leaf delays read 2k, 2k-2, ..., 2, 1, 1, 2, ..., 2k-2, 2k.  The
    plucking polynomial is q^(k^2) * (1+q)^(k+1) * (1+q+q^2)^k, which
    :func:`~catlattice.trees.plucking` reaches by factoring at splitting
    subtrees.
    """
    if k < 1:
        raise ValueError("fan needs k >= 1")
    delays = [2 * (k - j) for j in range(k)] + [1, 1]
    delays += [2 * (j + 1) for j in range(k)]
    return Node(tuple(Node((), d) for d in delays))


def stacked_return_state(k: int) -> Connection:
    """Cat(2k+2, 4) state: two top returns over k stacked returns per side.

    The lowest two rows hook crosswise into the bottom boundary.  Its beta
    invariant is 7k+5 and its maximal sequence alternates 3,4,...,3,4
    before closing with 3,2.
    """
    if k < 1:
        raise ValueError("tower needs k >= 1")
    pairs = [(("T", 1), ("T", 2)), (("T", 3), ("T", 4))]
    for j in range(1, k + 1):
        pairs.append((("R", 2 * j - 1), ("R", 2 * j)))
        pairs.append((("L", 2 * j - 1), ("L", 2 * j)))
    pairs += [
        (("R", 2 * k + 1), ("B", 3)),
        (("R", 2 * k + 2), ("B", 4)),
        (("L", 2 * k + 1), ("B", 2)),
        (("L", 2 * k + 2), ("B", 1)),
    ]
    return new_connection(2 * k + 2, 4, 4, pairs)


#: A Cat(4,6) state whose coefficient factors through the local family
#: {T6-R1, R2-R3}.  Frozen values:
#:   C(A)          = A^-14 + 3*A^-10 + 5*A^-6 + 5*A^-2 + 3*A^2 + A^6
#:   companion     = A^-2 + A^2
#:   rainbow part  = A^-12 + 2*A^-8 + 3*A^-4 + 2 + A^4
FACTOR_SAMPLE_TEXT = (
    "cat(4,6): T1-L1, T2-L2, T3-T4, T5-L3, T6-R1, "
    "L4-B1, R2-R3, R4-B6, B2-B5, B3-B4"
)

#: Boundary interval of the sample's local family (start index, length).
FACTOR_SAMPLE_WINDOW = (5, 4)


def factor_sample_state() -> Connection:
    """The frozen factoring sample as a Connection."""
    return parse_state(FACTOR_SAMPLE_TEXT)


def factor_sample_family() -> LocalFamily:
    """The detected local family sitting in the sample's frozen window."""
    C = factor_sample_state()
    for fam in iter_vertical_factorizations(C):
        if (fam.start, fam.length) == FACTOR_SAMPLE_WINDOW:
            return fam
    raise AssertionError("frozen family window no longer detected")
