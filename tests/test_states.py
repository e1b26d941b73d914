"""Catalan states of the lattice crossing and their plane geometry."""

import math
import random

import pytest

import states_reference as R
from catlattice import states as S


def catalan(k):
    return math.comb(2 * k, k) // (k + 1)


def test_boundary_points_order():
    pts = S.boundary_points(2, 3, 3)
    assert pts == [
        ("T", 1), ("T", 2), ("T", 3),
        ("R", 1), ("R", 2),
        ("B", 3), ("B", 2), ("B", 1),
        ("L", 2), ("L", 1),
    ]


def test_new_connection_validation():
    with pytest.raises(ValueError, match="unknown point"):
        S.new_connection(1, 1, 1, [(("T", 1), ("T", 2))])
    with pytest.raises(ValueError, match="duplicate point"):
        S.new_connection(1, 2, 2, [(("T", 1), ("T", 2)), (("T", 2), ("B", 1)),
                                   (("L", 1), ("R", 1)), (("B", 2), ("B", 1))])
    with pytest.raises(ValueError, match="unmatched point"):
        S.new_connection(1, 1, 1, [(("T", 1), ("R", 1))])


def test_negative_grid_sizes_rejected():
    for shape in [(-1, 2, 2), (2, -1, -1), (0, 0, -1)]:
        with pytest.raises(ValueError, match="negative grid size"):
            S.new_connection(*shape, [])
    for m, n in [(-1, 2), (2, -1)]:
        with pytest.raises(ValueError, match="negative grid size"):
            list(S.enumerate_catalan(m, n))


def test_crossing_pairs_rejected():
    with pytest.raises(ValueError, match="crossing pair"):
        S.parse_state("cat(1,2): T1-B1, T2-L1, R1-B2")


def test_parse_render_round_trip():
    for m, n in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 2)]:
        for C in S.enumerate_catalan(m, n):
            assert S.parse_state(S.render_state(C)) == C


@pytest.mark.parametrize(
    "bad, msg",
    [
        ("latt(1,1): T1-B1", "state text must start with 'cat\\(m,n\\):'"),
        ("cat(1,1) T1-B1", "state text must start with 'cat\\(m,n\\):'"),
        ("cat(1,1): T1/B1", "bad pair"),
        ("cat(1,1): T1-B1-L1", "bad pair"),
    ],
)
def test_parse_state_errors(bad, msg):
    with pytest.raises(ValueError, match=msg):
        S.parse_state(bad)


def test_enumerate_counts():
    # noncrossing matchings on 2(m+n) circle points
    for m in range(1, 4):
        for n in range(1, 4):
            got = len(list(S.enumerate_catalan(m, n)))
            assert got == catalan(m + n), (m, n, got)


def test_enumerate_is_deterministic_and_distinct():
    a = list(S.enumerate_catalan(2, 2))
    b = list(S.enumerate_catalan(2, 2))
    assert a == b
    assert len(set(a)) == len(a)


def test_identity_state_is_flat():
    C = S.identity_state(3)
    assert S.render_state(C) == "cat(0,3): T1-B1, T2-B2, T3-B3"
    assert C.m == 0 and C.n == 3


def test_non_catalan_connection():
    # a strip mid-glue can have different top and bottom widths; such
    # connections carry pairs but no Catalan text form
    C = S.new_connection(0, 4, 2, [(("T", 1), ("T", 2)), (("T", 3), ("B", 1)),
                                   (("T", 4), ("B", 2))])
    assert not C.is_catalan
    with pytest.raises(ValueError, match="connection is not a Catalan state"):
        C.n
    with pytest.raises(ValueError, match="only Catalan states have a text form"):
        S.render_state(C)


def test_coordinate():
    assert S.coordinate(("T", 2), 3, 4) == 2 - 4
    assert S.coordinate(("R", 2), 3, 4) == 2
    assert S.coordinate(("L", 2), 3, 4) == 1 - 4 - 2
    with pytest.raises(ValueError, match="bottom point has no coordinate"):
        S.coordinate(("B", 1), 3, 4)


def test_line_intersections_bounds():
    C = S.parse_state("cat(2,2): T1-T2, L1-R1, L2-R2, B1-B2")
    with pytest.raises(ValueError, match="line index out of range"):
        S.line_intersections(C, "horizontal", 3)
    with pytest.raises(ValueError, match="line index out of range"):
        S.line_intersections(C, "vertical", -1)
    with pytest.raises(ValueError, match="unknown orientation"):
        S.line_intersections(C, "diagonal", 1)


def test_realizability_by_line_counts():
    # interior horizontal lines may meet at most n arcs, vertical at most m
    for m, n in [(2, 2), (2, 3), (3, 2)]:
        for C in S.enumerate_catalan(m, n):
            expect = all(
                S.line_intersections(C, "horizontal", i) <= n
                for i in range(1, m)
            ) and all(
                S.line_intersections(C, "vertical", j) <= m
                for j in range(1, n)
            )
            assert S.is_realizable(C) == expect


def test_realizable_census():
    counts = {}
    for m, n in [(1, 1), (2, 2), (3, 3)]:
        counts[m, n] = sum(
            1 for C in S.enumerate_catalan(m, n) if S.is_realizable(C)
        )
    assert counts[1, 1] == 2
    assert counts[2, 2] == 12
    assert counts[3, 3] == 112


def test_classify():
    C = S.parse_state("cat(2,2): T1-T2, L1-B2, L2-B1, R1-R2")
    cls = S.classify(C)
    assert cls == S.StateClass(
        top_returns=1,
        bottom_returns=0,
        left_returns=0,
        right_returns=1,
        top_bottom_arcs=0,
    )
    flipped = S.classify(S.rotate_pi(C))
    assert flipped.bottom_returns == 1
    assert flipped.left_returns == 1
    assert flipped.top_returns == flipped.right_returns == 0


def test_symmetries_are_involutions():
    for C in S.enumerate_catalan(2, 3):
        assert S.rotate_pi(S.rotate_pi(C)) == C
        assert S.reflect(S.reflect(C)) == C
        assert S.rotate_quarter(S.rotate_quarter(
            S.rotate_quarter(S.rotate_quarter(C)))) == C


def test_symmetries_preserve_realizability():
    for C in S.enumerate_catalan(3, 2):
        r = S.is_realizable(C)
        assert S.is_realizable(S.rotate_pi(C)) == r
        assert S.is_realizable(S.reflect(C)) == r
        # a quarter turn swaps the roles of rows and columns
        Q = S.rotate_quarter(C)
        assert (Q.m, Q.n) == (2, 3)
        assert S.is_realizable(Q) == r


def test_rotate_quarter_orientation():
    C = S.parse_state("cat(1,2): T1-T2, L1-B1, R1-B2")
    Q = S.rotate_quarter(C)
    assert S.render_state(Q) == "cat(2,1): T1-L1, L2-B1, R1-R2"


def test_glue_vertical_loop_count():
    X = S.parse_state("cat(1,2): T1-T2, L1-R1, B1-B2")
    glued, loops = S.glue_vertical(X, X)
    assert S.render_state(glued) == "cat(2,2): T1-T2, L1-R1, L2-R2, B1-B2"
    assert loops == 1
    with pytest.raises(ValueError, match="widths do not match"):
        S.glue_vertical(X, S.identity_state(3))


def test_vertical_product():
    a = S.parse_state("cat(1,2): T1-T2, L1-B1, R1-B2")
    b = S.parse_state("cat(1,2): T1-L1, T2-R1, B1-B2")
    glued, loops = S.glue_vertical(a, b)
    assert loops == 0
    assert S.render_state(glued) == "cat(2,2): T1-T2, L1-L2, R1-R2, B1-B2"
    assert R.vertical_product(a, b) == glued
    # a loop at the seam collapses the product to the zero element
    X = S.parse_state("cat(1,2): T1-T2, L1-R1, B1-B2")
    assert R.vertical_product(X, X) is R.K0
    assert R.vertical_product(R.K0, a) is R.K0


def test_tau_shift_round_trip():
    for C in S.enumerate_catalan(2, 2):
        T = S.tau_shift(C, 1)
        assert (T.m, T.n_t, T.n_b) == (1, 4, 2)
        assert S.tau_shift(T, -1) == C
        full = S.tau_shift(C, 2)
        assert full.m == 0 and full.n_t == 6
        assert S.tau_shift(full, -2) == C
    with pytest.raises(ValueError, match="shift out of range"):
        S.tau_shift(C, 5)


def test_proper_arcs():
    C = S.parse_state("cat(2,2): T1-T2, L1-B2, L2-B1, R1-R2")
    assert S.is_proper_arc(C, (("T", 1), ("T", 2)))
    assert S.is_proper_arc(C, (("L", 1), ("B", 2)))
    assert not S.is_proper_arc(C, (("R", 1), ("R", 2)))
    D = S.parse_state("cat(1,2): T1-B2, T2-R1, L1-B1")
    assert not S.is_proper_arc(D, (("T", 1), ("B", 2)))


def test_remove_arc_shrinks_by_one_row():
    C = S.parse_state("cat(2,2): T1-T2, L1-B2, L2-B1, R1-R2")
    D = S.remove_arc(C, (("T", 1), ("T", 2)))
    assert (D.m, D.n) == (1, 2)
    with pytest.raises(ValueError, match="arc is not proper"):
        S.remove_arc(C, (("R", 1), ("R", 2)))
    flat = S.new_connection(0, 2, 2, [(("T", 1), ("T", 2)),
                                      (("B", 1), ("B", 2))])
    with pytest.raises(ValueError, match="no rows left to absorb a removal"):
        S.remove_arc(flat, (("T", 1), ("T", 2)))


def test_find_pair_unknown_arc():
    C = S.parse_state("cat(1,1): T1-R1, L1-B1")
    with pytest.raises(ValueError, match="arc not in state"):
        S.extended_labels(C, (("T", 1), ("L", 1)))


def test_arc_lookup_takes_either_order_and_rejects_non_arcs():
    C = S.parse_state("cat(2,2): T1-T2, L1-B2, L2-B1, R1-R2")
    arc = (("L", 1), ("B", 2))
    removed = S.remove_arc(C, arc)
    for c in (arc, arc[::-1]):
        assert S.extended_labels(C, c) == (1, 3)
        assert S.is_removable(C, c)
        assert S.remove_arc(C, c) == removed
    # an unknown point on either end, a self pair, and two points not mates
    for c in [(("T", 9), ("T", 1)), (("T", 1), ("T", 9)), (("T", 1), ("T", 1)),
              (("T", 1), ("B", 1)), (("L", 1), ("B", 1))]:
        for ask in (S.extended_labels, S.remove_arc, S.is_removable):
            with pytest.raises(ValueError, match="arc not in state"):
                ask(C, c)


def test_extended_labels_cases():
    C = S.parse_state("cat(2,2): T1-T2, L1-B2, L2-B1, R1-R2")
    assert S.extended_labels(C, (("T", 1), ("T", 2))) == (0, 0)
    assert S.extended_labels(C, (("L", 1), ("B", 2))) == (1, 3)
    assert S.extended_labels(C, (("L", 2), ("B", 1))) == (2, 4)
    # side returns sit on one vertical edge and carry no labels
    with pytest.raises(ValueError, match="arc has no extended labels"):
        S.extended_labels(C, (("R", 1), ("R", 2)))


def test_removable_arc_census():
    totals = {}
    for m, n in [(2, 2), (2, 3), (3, 2)]:
        totals[m, n] = sum(
            len(S.find_removable_arcs(C)) for C in S.enumerate_catalan(m, n)
        )
    assert totals[2, 2] == 34
    assert totals[2, 3] == 92
    assert totals[3, 2] == 110


def test_removable_arcs_are_proper_and_removal_shrinks():
    for m, n in [(2, 2), (2, 3), (3, 2)]:
        for C in S.enumerate_catalan(m, n):
            for arc in S.find_removable_arcs(C):
                assert S.is_proper_arc(C, arc)
                assert S.is_removable(C, arc)
                D = S.remove_arc(C, arc)
                assert (D.m, D.n) == (m - 1, n)


def test_vertical_split():
    a = S.parse_state("cat(1,2): T1-T2, L1-B1, R1-B2")
    b = S.parse_state("cat(1,2): T1-L1, T2-R1, B1-B2")
    C = R.vertical_product(a, b)
    assert S.is_vertically_decomposable(C) == 1
    upper, lower = S.split_at(C, 1)
    assert upper == a
    assert lower == b
    with pytest.raises(ValueError, match="line is not saturating"):
        S.split_at(C, 0)
    with pytest.raises(ValueError, match="line index out of range"):
        S.split_at(C, 5)
    stuck = S.parse_state("cat(2,2): T1-T2, L1-R1, L2-R2, B1-B2")
    assert S.is_vertically_decomposable(stuck) is None


def test_split_recomposes_random_products():
    rng = random.Random(41)
    tops = [C for C in S.enumerate_catalan(1, 3)]
    count = 0
    for _ in range(200):
        a, b = rng.choice(tops), rng.choice(tops)
        C = R.vertical_product(a, b)
        if C is R.K0:
            continue
        if S.line_intersections(C, "horizontal", 1) != 3:
            continue
        upper, lower = S.split_at(C, 1)
        assert R.vertical_product(upper, lower) == C
        count += 1
    assert count > 10, "sampling produced too few saturated products"
