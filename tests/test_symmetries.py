"""The bracket's mirror symmetries, checked on both folds.

A reflection of the diagram swaps the two smoothings of every crossing, so
it inverts A; the transpose (the reflection of the quarter turn) inverts A
twice and keeps the value.  Both are checked through the oracle's full
fold on every state with m, n <= 4 and mn <= 12, and through the
target-pruned fold (``bracket_coefficient_at``) on seeded random
realizable states past the oracle's reach, 20 < mn <= 49.
"""

import random

import pytest

from catlattice import kauffman as K
from catlattice import states as S
from catlattice.laurent import substitute_power
from test_boundary_view import random_state

SMALL = [(m, n) for m in range(1, 5) for n in range(1, 5) if m * n <= 12]
WIDE = [(m, n) for m in range(3, 8) for n in range(3, 8) if 20 < m * n <= 49]


def transpose(C):
    return S.reflect(S.rotate_quarter(C))


def test_the_small_shapes_hold_1476_states():
    assert sum(1 for m, n in SMALL for _ in S.enumerate_catalan(m, n)) == 1476


@pytest.mark.parametrize("m, n", SMALL)
def test_mirror_symmetries_of_the_oracle(m, n):
    for C in S.enumerate_catalan(m, n):
        value = K.oracle_coefficient(C)
        assert K.oracle_coefficient(S.reflect(C)) == substitute_power(value, -1), C
        assert K.oracle_coefficient(transpose(C)) == value, C


def test_mirror_symmetries_of_the_pruned_fold():
    rng = random.Random(20261020)
    for _ in range(100):
        m, n = rng.choice(WIDE)
        C = random_state(rng, m, n)
        while not S.is_realizable(C):  # an unrealizable state folds to 0
            C = random_state(rng, m, n)
        value = K.bracket_coefficient_at(C)
        assert value != {}, C
        reflected = K.bracket_coefficient_at(S.reflect(C))
        assert reflected == substitute_power(value, -1), C
        assert K.bracket_coefficient_at(transpose(C)) == value, C
