"""Side-walk levels as prefix-summed multiset ints against the level scans.

``states._side_walks`` stores each position's levels as one int, level j
in digit j + n of ``states._LEVEL_BITS`` bits, and ``states._level_prefix``
prefix-sums them along the doubled clockwise word.  Two bits per digit
hold only because a level occurs at no more than two positions of a shape;
that is checked for every shape with m, n <= 12.  ``states._removable``
and ``coeff.iter_vertical_factorizations`` are compared with the scans
they replaced (``levels_reference``) on seeded random states up to
Cat(9,9), past the exhaustive range of ``test_boundary_view``.
"""

import random
from collections import Counter

from hypothesis import given, settings, strategies as st

import levels_reference as LR
from catlattice import coeff as E
from catlattice import states as S
from test_boundary_view import random_state


def test_a_level_occurs_at_no_more_than_two_positions():
    D = S._LEVEL_BITS
    for m in range(13):
        for n in range(13):
            step = LR.step(m, n)
            seen = Counter(j for js in step for j in js)
            assert max(seen.values(), default=0) <= 2, (m, n)
            unit = S._side_walks(m, n)[2]
            assert unit == [sum(1 << D * (j + n) for j in js) for js in step], (m, n)
            # the whole shape's sum keeps each level's count in its digit
            total = sum(unit)
            digits = Counter()
            for d in range(total.bit_length() // D + 1):
                if total >> D * d & (1 << D) - 1:
                    digits[d - n] = total >> D * d & (1 << D) - 1
            assert digits == seen, (m, n)


SHAPES = [(m, n) for m in range(10) for n in range(10) if m + n]

states_to_9x9 = st.builds(
    lambda shape, seed: random_state(random.Random(seed), *shape),
    st.sampled_from(SHAPES),
    st.integers(min_value=0, max_value=2**32 - 1),
)


@settings(max_examples=1000, derandomize=True, deadline=None, database=None)
@given(states_to_9x9)
def test_prefix_sums_answer_as_the_level_scans(C):
    # every arc, each end first once
    arcs = list(enumerate(C.mate))
    assert list(S._removable(C, arcs)) == LR._removable(C, arcs), S.render_state(C)
    got = list(E.iter_vertical_factorizations(C))
    assert got == list(LR.iter_vertical_factorizations(C)), S.render_state(C)
