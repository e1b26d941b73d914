"""The brute-force bracket oracle and its targeted variant."""

import pytest

from catlattice import kauffman as K
from catlattice import laurent as L
from catlattice import states as S


def test_loop_weight():
    assert K.LOOP_WEIGHT == {-2: -1, 2: -1}


def test_smooth_single_crossing():
    neg = K.smooth(((-1,),))
    assert S.render_state(neg.state) == "cat(1,1): T1-L1, R1-B1"
    assert neg.loops == 0
    pos = K.smooth(((1,),))
    assert S.render_state(pos.state) == "cat(1,1): T1-R1, L1-B1"
    assert pos.loops == 0


def test_smooth_loop_counting():
    # -+ over +- closes one loop in the middle of the square
    res = K.smooth(((-1, 1), (1, -1)))
    assert res.loops == 1
    # the alternating 3x3 checkerboard closes two
    res33 = K.smooth(((1, -1, 1), (-1, 1, -1), (1, -1, 1)))
    assert res33.loops == 2


@pytest.mark.parametrize(
    "grid, msg",
    [
        ((), "grid must have at least one row and column"),
        (((),), "grid must have at least one row and column"),
        (((1,), (1, -1)), "grid is not rectangular"),
        (((2,),), "bad marker"),
        (((0,),), "bad marker"),
    ],
)
def test_smooth_validation(grid, msg):
    with pytest.raises(ValueError, match=msg):
        K.smooth(grid)


def test_every_grid_lands_on_a_catalan_state():
    import itertools

    for bits in itertools.product((1, -1), repeat=4):
        grid = (bits[:2], bits[2:])
        res = K.smooth(grid)
        assert res.state.is_catalan
        assert S.is_realizable(res.state)


def test_bracket_table_matches_plain_enumeration():
    for m, n in [
        (1, 1), (1, 2), (2, 2), (2, 3), (3, 2),
        (1, 3), (3, 1), (2, 4), (4, 2), (3, 3),
    ]:
        fold = K.bracket_table(m, n)
        plain = K.bracket_table_by_enumeration(m, n)
        assert fold == plain, (m, n)


def test_bracket_table_follows_the_smoothing_flag(monkeypatch):
    monkeypatch.setattr(K, "POSITIVE_JOINS_EAST", False)
    assert K.bracket_table(2, 2) == K.bracket_table_by_enumeration(2, 2)


def test_bracket_table_support_is_the_realizable_set():
    for m, n in [(2, 2), (2, 3)]:
        table = K.bracket_table(m, n)
        support = {C for C, v in table.items() if not L.is_zero(v)}
        realizable = {
            C for C in S.enumerate_catalan(m, n) if S.is_realizable(C)
        }
        assert support == realizable


def test_bracket_table_total_weight():
    # summing all entries recovers the bracket of the whole tangle summed
    # over closures; at A = 1 every grid weighs (-2)^loops, so the total
    # must be an integer-valued check independent of the fold order
    table = K.bracket_table(2, 2)
    total_at_one = sum(sum(v.values()) for v in table.values())
    by_enum = K.bracket_table_by_enumeration(2, 2)
    assert total_at_one == sum(sum(v.values()) for v in by_enum.values())


def test_oracle_coefficient_and_cache(monkeypatch):
    K._shape_fold.cache_clear()
    built = []
    fold = K._fold

    def counting(m, n, allowed=None):
        built.append((m, n))
        return fold(m, n, allowed)

    monkeypatch.setattr(K, "_fold", counting)
    C = S.parse_state("cat(2,2): T1-L1, T2-R1, L2-B1, R2-B2")
    assert L.render(K.oracle_coefficient(C)) == "A^-2 + A^2"
    assert L.render(K.oracle_coefficient(C)) == "A^-2 + A^2"
    assert built == [(2, 2)]  # the second call reads the cached fold
    # unrealizable states get the zero polynomial
    X = S.parse_state("cat(1,2): T1-T2, L1-R1, B1-B2")
    assert K.oracle_coefficient(X) == L.ZERO


def test_oracle_matches_the_table():
    # every state, realizable or not, including the trivial shapes
    for m, n in [(0, 2), (2, 0), (1, 3), (2, 3), (3, 2), (3, 3)]:
        table = K.bracket_table(m, n)
        for C in S.enumerate_catalan(m, n):
            assert K.oracle_coefficient(C) == table.get(C, L.ZERO), (m, n, C)


def test_shape_fold_cache_is_bounded():
    assert K._shape_fold.cache_info().maxsize is not None


def test_budget_guard():
    C = S.parse_state("cat(2,2): T1-L1, T2-R1, L2-B1, R2-B2")
    with pytest.raises(
        K.BudgetError,
        match="oracle budget exceeded: a 2x2 grid needs 4 bits, budget is 3",
    ):
        K.oracle_coefficient(C, budget_bits=3)
    # an explicit budget wide enough lets the same call through
    assert K.oracle_coefficient(C, budget_bits=4) == {-2: 1, 2: 1}


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("ORACLE_BUDGET_BITS", "2")
    C = S.parse_state("cat(2,2): T1-L1, T2-R1, L2-B1, R2-B2")
    with pytest.raises(K.BudgetError, match="budget is 2"):
        K.oracle_coefficient(C)
    # an explicit argument wins over the environment
    assert K.oracle_coefficient(C, budget_bits=4) == {-2: 1, 2: 1}


def test_budget_env_must_be_an_integer(monkeypatch):
    monkeypatch.setenv("ORACLE_BUDGET_BITS", "abc")
    C = S.parse_state("cat(2,2): T1-L1, T2-R1, L2-B1, R2-B2")
    with pytest.raises(
        ValueError, match="ORACLE_BUDGET_BITS must be an integer, got 'abc'"
    ):
        K.oracle_coefficient(C)


@pytest.mark.parametrize(
    "m, n", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 4), (4, 3)]
)
def test_targeted_fold_matches_oracle(m, n):
    for C in S.enumerate_catalan(m, n):
        assert K.bracket_coefficient_at(C) == K.oracle_coefficient(C), (
            S.render_state(C)
        )


def test_targeted_fold_rejects_open_connections():
    strip = S.new_connection(0, 4, 2, [(("T", 1), ("T", 2)),
                                       (("T", 3), ("B", 1)),
                                       (("T", 4), ("B", 2))])
    with pytest.raises(ValueError, match="connection is not a Catalan state"):
        K.bracket_coefficient_at(strip)


def test_pruned_fold_cache_is_bounded():
    assert K._pruned_fold.cache_info().maxsize is not None


@pytest.mark.parametrize(
    "text",
    [
        # wide: answered through the quarter turn
        "cat(1,4): T1-T2, T3-T4, L1-B1, R1-B4, B2-B3",
        # tall: folded as it stands
        "cat(3,2): T1-L1, T2-R1, L2-L3, R2-R3, B1-B2",
    ],
)
def test_pruned_fold_answers_are_fresh_copies(text):
    C = S.parse_state(text)
    K._pruned_fold.cache_clear()
    first = K.bracket_coefficient_at(C)
    assert first == K.oracle_coefficient(C) and first
    first[99] = 1
    first.clear()
    again = K.bracket_coefficient_at(C)
    assert again == K.oracle_coefficient(C)
    assert K._pruned_fold.cache_info().hits == 1
    again[99] = 1
    assert K.bracket_coefficient_at(C) == K.oracle_coefficient(C)
