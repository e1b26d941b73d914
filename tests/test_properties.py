"""Property tests over seeded random states with mn <= 12.

Each example is a random noncrossing matching of the Cat(m,n) boundary
(``random_state``), drawn from a shape and a seed; ``derandomize`` keeps
the examples the same from run to run.
"""

import random

from hypothesis import given, settings, strategies as st

from catlattice import states as S
from catlattice.coeff import coefficient
from catlattice.laurent import substitute_power
from test_boundary_view import random_state

SHAPES = [(m, n) for m in range(1, 13) for n in range(1, 13) if m * n <= 12]

catalan_states = st.builds(
    lambda shape, seed: random_state(random.Random(seed), *shape),
    st.sampled_from(SHAPES),
    st.integers(min_value=0, max_value=2**32 - 1),
)

examples = settings(max_examples=300, derandomize=True, deadline=None, database=None)


@examples
@given(catalan_states)
def test_text_round_trip(C):
    assert S.parse_state(S.render_state(C)) == C


@examples
@given(catalan_states)
def test_pairs_rebuild_the_state(C):
    D = S.new_connection(C.m, C.n_t, C.n_b, C.pairs)
    assert D == C
    assert hash(D) == hash(C)


@examples
@given(catalan_states)
def test_half_turn_keeps_the_coefficient(C):
    assert coefficient(S.rotate_pi(C))[0] == coefficient(C)[0]


@examples
@given(catalan_states)
def test_quarter_turn_inverts_a(C):
    turned = coefficient(S.rotate_quarter(C))[0]
    assert turned == substitute_power(coefficient(C)[0], -1)
