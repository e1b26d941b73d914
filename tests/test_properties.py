"""Property tests over seeded random states with mn <= 20, and trees.

Each state example is a random noncrossing matching of the Cat(m,n)
boundary (``random_state``), drawn from a shape and a seed: mn <= 12 for
the symmetry and round-trip properties, 9 < mn <= 20 (past the exhaustive
range of the acceptance tests) for the trace product; each tree
example is a random plane tree (``rand_plane_tree``) of up to 40 vertices,
past the reach of the plucking definition.  ``derandomize`` keeps the
examples the same from run to run.
"""

import random

from hypothesis import given, settings, strategies as st

from catlattice import kauffman as K
from catlattice import states as S
from catlattice.coeff import coefficient
from catlattice import trees as T
from catlattice.laurent import ONE, mul, q_binomial, substitute_power
from test_boundary_view import random_state
from test_trees import rand_plane_tree

SHAPES = [(m, n) for m in range(1, 13) for n in range(1, 13) if m * n <= 12]


def states_of(shapes):
    return st.builds(
        lambda shape, seed: random_state(random.Random(seed), *shape),
        st.sampled_from(shapes),
        st.integers(min_value=0, max_value=2**32 - 1),
    )


catalan_states = states_of(SHAPES)
wide_states = states_of(
    [(m, n) for m in range(1, 21) for n in range(1, 21) if 9 < m * n <= 20]
)

plain_trees = st.builds(
    lambda seed: rand_plane_tree(random.Random(seed), 40, [1]),
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


@examples
@given(wide_states)
def test_trace_factors_multiply_to_the_oracle_value(C):
    value, trace = coefficient(C)
    product = ONE
    for step in trace:
        product = mul(product, step.factor)
    assert product == value
    assert value == K.bracket_coefficient_at(C)


def _q_multinomial_product(t):
    # the product over vertices of [s_1 + ... + s_k; s_1, ..., s_k]_q, where
    # the s_i are the sizes of the vertex's child subtrees, and t's size;
    # it counts sizes itself rather than read the stored ones
    out, total = ONE, 0
    for c in t.children:
        below, size = _q_multinomial_product(c)
        total += size
        out = mul(out, mul(q_binomial(total, size), below))
    return out, total + 1


@examples
@given(plain_trees)
def test_plucking_of_a_delay_free_tree_is_a_q_multinomial_product(t):
    assert T.plucking(t) == _q_multinomial_product(t)[0]
