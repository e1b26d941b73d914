"""The packed marker-grid fold against the dict-weight fold it replaced.

``kauffman._fold`` keeps each weight as one int (a polynomial in A^2,
K = m*n + 2 bits per slot) and each set of frozen pairs as one bitmask,
grouped under the slots of a full fold and dropped from a target fold;
``fold_reference._fold`` is the former fold, with one Laurent dict per
weight and a sorted tuple of frozen pairs, keyed by (slots, frozen) in
both.  Every final entry must decode to the same polynomial, for full and
for target-pruned folds, and to its mirror image (A inverted) when
decoded as the weight of a quarter turn.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

import fold_reference as R
from catlattice import kauffman as K
from catlattice import states as S
from catlattice.laurent import substitute_power
from test_boundary_view import random_state

SHAPES = [(m, n) for m in range(6) for n in range(6) if m * n <= 12]
SHAPES += [(4, 5), (5, 4)]


def mask_of(m, n, frozen):
    bits = K._codes(m, n)[2]
    mask = 0
    for a, b in frozen:
        mask |= 1 << bits[a][b]
    return mask


def pairs_of(m, n, mask):
    bits = K._codes(m, n)[2]
    P = len(bits)
    return {(a, b) for a in range(-P, 0) for b in range(a + 1, 0) if mask >> bits[a][b] & 1}


def decoded(m, n, table, unturned=True):
    return {key: K._unpack(w, m, n, unturned) for key, w in table.items()}


def flat(grouped):
    """A full fold's {cols: {frozen: w}} as {(cols, frozen): w}."""
    return {(cols, f): w for cols, group in grouped.items() for f, w in group.items()}


def reference(m, n, allowed=None):
    """The reference fold, its keys re-encoded with frozen bitmasks and its
    zero entries dropped, as the packed fold drops them."""
    table = R._fold(m, n, allowed)
    return {(cols, mask_of(m, n, frozen)): w for (cols, frozen), w in table.items() if w}


@pytest.mark.parametrize("unturned", [True, False])
@pytest.mark.parametrize("m, n", SHAPES)
def test_packed_fold_equals_the_dict_fold(m, n, unturned):
    got = decoded(m, n, flat(K._fold(m, n)), unturned)
    want = reference(m, n)
    if not unturned:  # a quarter turn inverts A
        want = {key: substitute_power(w, -1) for key, w in want.items()}
    assert got == want
    # slot s of a weight is A^(2s - 3mn), s = 0..2mn, or its inverse
    lo, hi = (-3 * m * n, m * n) if unturned else (-m * n, 3 * m * n)
    for value in got.values():
        assert all(lo <= e <= hi for e in value), (m, n, value)


def test_pruned_packed_fold_equals_the_dict_fold():
    rng = random.Random(20261019)
    for m, n, draws in ((6, 6, 20), (7, 7, 16)):
        for _ in range(draws):
            C = random_state(rng, m, n)
            while not S.is_realizable(C):  # an unrealizable target folds to 0
                C = random_state(rng, m, n)
            cols, mask = K._frontier_key(C)
            got = decoded(m, n, K._fold(m, n, allowed=mask))
            want = reference(m, n, allowed=pairs_of(m, n, mask))
            # the target fold keys by the slots alone: no two of the
            # reference's final entries may share their columns
            assert len({c for c, _ in want}) == len(want), C
            assert got == {c: w for (c, _), w in want.items()}, C
            assert got[cols] == K.bracket_coefficient_at(C) != {}


@st.composite
def layers(draw):
    """One layer's packed slots: (m, n, {slot s: coefficient of A^(2s - 3mn)})
    with every coefficient within the proven bound 2^(mn)."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    bound = 2 ** (m * n)
    slots = draw(st.dictionaries(
        st.integers(0, 2 * m * n), st.integers(-bound, bound), max_size=12
    ))
    return m, n, slots


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(layers())
# all negative, at the bound, from one end of the exponent range to the other
@example((3, 4, {s: -(2 ** 12) for s in range(25)}))
# neighbours of opposite sign borrow from each other in the packed int
@example((3, 4, {s: (-1) ** s * 2 ** 12 for s in range(25)}))
@example((1, 1, {0: 2, 1: -2, 2: 2}))
@example((2, 2, {0: -16, 8: 16}))
@example((1, 1, {}))
def test_unpack_inverts_packing(layer):
    m, n, slots = layer
    K_bits = m * n + 2
    w = sum(c << (K_bits * s) for s, c in slots.items())
    want = {2 * s - 3 * m * n: c for s, c in slots.items() if c}
    assert K._unpack(w, m, n, True) == want
    assert K._unpack(w, m, n, False) == {-e: c for e, c in want.items()}
