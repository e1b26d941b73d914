"""Exponent-maximizing marker grids: beta and the per-row count sequence."""

import random

import pytest
from maxseq_reference import upper_arcs
from test_boundary_view import random_state

from catlattice import kauffman as K
from catlattice import laurent as L
from catlattice import maxseq as M
from catlattice import states as S


def no_bottom_returns(C):
    return S.classify(C).bottom_returns == 0


def test_golden_example():
    C = S.parse_state("cat(2,2): T1-L1, T2-R1, L2-B1, R2-B2")
    assert M.beta(C) == 3
    assert M.max_sequence(C) == (2, 1)
    assert M.row_sorted_grid((2, 1), 2) == ((1, 1), (1, -1))


def test_input_guards():
    overfull = S.parse_state("cat(1,2): T1-T2, L1-R1, B1-B2")
    with pytest.raises(ValueError, match="state is not realizable"):
        M.beta(overfull)
    returning = S.parse_state("cat(1,2): T1-L1, T2-R1, B1-B2")
    with pytest.raises(ValueError, match="state has bottom returns"):
        M.max_sequence(returning)


def test_row_sorted_grid_bounds():
    with pytest.raises(ValueError, match="row count out of range"):
        M.row_sorted_grid((3,), 2)
    with pytest.raises(ValueError, match="row count out of range"):
        M.row_sorted_grid((-1,), 2)


def test_sequence_realizes_guards():
    with pytest.raises(ValueError, match="need one count per row"):
        M.sequence_realizes((1, 1), 1, 2)
    assert M.sequence_realizes((), 0, 3) == S.identity_state(3)


@pytest.mark.parametrize("m, n", [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2)])
def test_max_grid_smooths_back_without_loops(m, n):
    for C in S.enumerate_catalan(m, n):
        if not S.is_realizable(C) or not no_bottom_returns(C):
            continue
        b = M.max_sequence(C)
        assert len(b) == m
        assert all(0 <= bj <= n for bj in b)
        res = K.smooth(M.row_sorted_grid(b, n))
        assert res.state == C, S.render_state(C)
        assert res.loops == 0, S.render_state(C)
        assert M.sequence_realizes(b, m, n) == C


@pytest.mark.parametrize("m, n", [(1, 2), (2, 2), (2, 3), (3, 2)])
def test_beta_is_the_oracle_top_exponent(m, n):
    # the bracket's largest exponent is 2*beta - m*n, attained exactly once
    for C in S.enumerate_catalan(m, n):
        if not S.is_realizable(C) or not no_bottom_returns(C):
            continue
        o = K.oracle_coefficient(C)
        assert not L.is_zero(o), S.render_state(C)
        top = L.max_degree(o)
        assert top == 2 * M.beta(C) - m * n, S.render_state(C)
        assert o[top] == 1, S.render_state(C)


def test_beta_under_quarter_turn():
    # turning the grid swaps the roles of rows and columns; the bracket
    # inverts A, so the top exponent becomes the negated bottom exponent
    for C in S.enumerate_catalan(2, 2):
        if not S.is_realizable(C):
            continue
        o = K.oracle_coefficient(C)
        t = K.oracle_coefficient(S.rotate_quarter(C))
        assert L.max_degree(t) == -L.min_degree(o)


def test_coordinates_from_positions_match_the_per_point_definition():
    checked = 0
    for total in range(10):
        for m in range(total + 1):
            for C in S.enumerate_catalan(m, total - m):
                if S.is_realizable(C) and no_bottom_returns(C):
                    assert M._upper_arcs(C) == upper_arcs(C), S.render_state(C)
                    checked += 1
    assert checked == 5538
    # bottom arcs are skipped either way, so any draw compares
    rng = random.Random(20261021)
    for m in range(10):
        for n in range(10):
            for _ in range(20):
                C = random_state(rng, m, n)
                assert M._upper_arcs(C) == upper_arcs(C), S.render_state(C)
