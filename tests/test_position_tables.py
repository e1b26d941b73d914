"""Per-shape position tables against the code they replaced.

``states._shape`` gives each clockwise position its side bit, row depth and
column depth.  ``states.view`` builds the census and both cut-count tuples
from them in one pass over the arcs; ``coeff.reduce_removable`` stops the
reading-order removable scan at its first hit and removes that arc at its
positions; and ``kauffman._frontier_key`` reads the codes of the quarter
turn, so the oracle folds every grid along its shorter side.  Each is
compared with its earlier form (``states_reference``) or, for the oracle,
with ``bracket_table``, which folds the grid as it stands.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import states_reference as R
from catlattice import coeff as E
from catlattice import kauffman as K
from catlattice import laurent as L
from catlattice import states as S
from test_boundary_view import random_state


def noncrossing_mates(N):
    """Every noncrossing perfect matching of positions 0..N-1, as ``mate``."""
    mate = [0] * N

    def match(lo, hi):
        if lo == hi:
            yield
            return
        for k in range(lo + 1, hi, 2):
            mate[lo], mate[k] = k, lo
            for _ in match(lo + 1, k):
                yield from match(k + 1, hi)

    for _ in match(0, N):
        yield tuple(mate)


def test_one_pass_view_equals_the_stretch_scans():
    # every connection of every shape with 2m + n_t + n_b <= 12, so m = 0,
    # n = 0 and every pair of unequal widths included
    count = 0
    for N in range(0, 13, 2):
        for m in range(N // 2 + 1):
            for n_t in range(N - 2 * m + 1):
                for mate in noncrossing_mates(N):
                    C = S._from_mate(m, n_t, N - 2 * m - n_t, mate)
                    assert S.view(C) == R.view(C), C
                    count += 1
    assert count == 8_433  # sum over N of Catalan(N/2) times the shapes
    # every Catalan state with m + n <= 8
    for total in range(9):
        for m in range(total + 1):
            for C in S.enumerate_catalan(m, total - m):
                assert S.view(C) == R.view(C), C


def test_one_pass_view_of_glued_connections():
    # tau-shifted pieces glued onto Catalan states: n_t != n_b, no vertical
    rng = random.Random(16)
    for _ in range(300):
        m, n, t = rng.randint(1, 4), rng.randint(0, 4), rng.randint(1, 2)
        upper = S.tau_shift(random_state(rng, m, n), min(t, m))
        lower = random_state(rng, rng.randint(0, 3), upper.n_b)
        C, _ = S.glue_vertical(upper, lower)
        assert C.n_t != C.n_b
        assert S.view(C) == R.view(C) and S.view(C).vertical is None, C


def same_first_removal(C):
    got, want = E.reduce_removable(C), R.reduce_removable(C)
    assert got == want, S.render_state(C)
    return got is not None


def test_first_hit_removal_equals_the_trio_on_every_small_state():
    states = removed = 0
    for m in range(7):
        for n in range(7):
            if m * n <= 20 and m + n <= 9:
                for C in S.enumerate_catalan(m, n):
                    removed += same_first_removal(C)
                    states += 1
    assert states == 30_447
    assert 0 < removed < states  # states with and without a removable arc


SHAPES = [(m, n) for m in range(10) for n in range(10) if m + n]

states_to_9x9 = st.builds(
    lambda shape, seed: random_state(random.Random(seed), *shape),
    st.sampled_from(SHAPES),
    st.integers(min_value=0, max_value=2**32 - 1),
)


@settings(max_examples=1000, derandomize=True, deadline=None, database=None)
@given(states_to_9x9)
def test_first_hit_removal_equals_the_trio_on_random_states(C):
    same_first_removal(C)


@pytest.mark.parametrize("turned", [True, False])
def test_oracle_through_the_turned_fold_equals_the_table(turned):
    # m < n folds the quarter turn (Cat(n, m)) and decodes with A inverted
    shapes = [(m, n) for m in range(7) for n in range(7) if m * n <= 12]
    shapes = [(m, n) for m, n in shapes if (m < n) == turned]
    assert len(shapes) > 10 and ((3, 3) in shapes) != turned
    for m, n in shapes:
        table = K.bracket_table(m, n)
        for C in S.enumerate_catalan(m, n):
            assert K.oracle_coefficient(C) == table.get(C, L.ZERO), C
            assert K.bracket_coefficient_at(C) == table.get(C, L.ZERO), C


def test_a_shape_and_its_quarter_turn_share_one_fold():
    K._shape_fold.cache_clear()
    wide = next(C for C in S.enumerate_catalan(4, 5) if S.is_realizable(C))
    assert K.oracle_coefficient(wide)
    K.oracle_coefficient(S.rotate_quarter(wide))
    info = K._shape_fold.cache_info()
    assert (info.misses, info.hits) == (1, 1)
