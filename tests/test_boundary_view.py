"""The clockwise boundary view against the definitions it replaced.

Cut-line counts, removable arcs and local families are all read off one
clockwise view of a state (its points in ``boundary_points`` order and each
point's partner position).  The functions below are the earlier direct
definitions, kept literally as references: a region set per cut line, a
token list with corner sentinels for the two sides of an arc, and a scan of
every arc for every (start, length) boundary interval.  They are compared
with the library on every state with m + n <= 8 and on seeded random states
of Cat(5,6) and Cat(6,6).
"""

import random

import pytest

from catlattice import coeff as E
from catlattice import states as S
from catlattice.states import _adjacent_descriptions, _find_pair, boundary_points


# -- reference definitions ------------------------------------------------------


def ref_line_intersections(C, orientation, i):
    if orientation == "horizontal":
        region = {p for p in boundary_points(C.m, C.n_t, C.n_b) if p[0] == "T"}
        region |= {("L", j) for j in range(1, i + 1)}
        region |= {("R", j) for j in range(1, i + 1)}
    else:
        region = {("L", j) for j in range(1, C.m + 1)}
        region |= {("T", k) for k in range(1, i + 1)}
        region |= {("B", k) for k in range(1, i + 1)}
    return sum((p in region) != (q in region) for p, q in C.pairs)


def ref_is_realizable(C):
    n = C.n
    for i in range(1, C.m):
        if ref_line_intersections(C, "horizontal", i) > n:
            return False
    for j in range(1, n):
        if ref_line_intersections(C, "vertical", j) > C.m:
            return False
    return True


def ref_two_sides(C, c):
    n = C.n
    tokens = [("T", i) for i in range(1, n + 1)]
    tokens += [("R", j) for j in range(1, C.m + 1)]
    tokens.append("botmid")
    tokens += [("B", i) for i in range(n, 0, -1)]
    tokens += [("L", j) for j in range(C.m, 0, -1)]
    tokens.append("topmid")
    pos = {tk: k for k, tk in enumerate(tokens)}
    a, b = sorted((pos[c[0]], pos[c[1]]))
    between = {tk for tk in tokens if a < pos[tk] < b}
    outside = {tk for tk in tokens if tk not in between} - {c[0], c[1]}
    if "B" in (c[0][0], c[1][0]):
        A1, A2 = (between, outside) if "topmid" in between else (outside, between)
    else:
        A2, A1 = (between, outside) if "botmid" in between else (outside, between)
    A1.discard("topmid")
    A1.discard("botmid")
    A2.discard("topmid")
    A2.discard("botmid")
    return A1, A2


def ref_is_removable(C, c):
    if C.m == 0:
        return False
    c = _find_pair(C, c)
    if not S.is_proper_arc(C, c):
        return False
    A1, _ = ref_two_sides(C, c)
    m, n = C.m, C.n
    top_side = [0]
    bottom_side = [m]
    for arc in C.pairs:
        if arc == c:
            continue
        bucket = top_side if arc[0] in A1 else bottom_side
        bucket.extend(_adjacent_descriptions(arc, m, n))
    return max(top_side) <= min(bottom_side) - 1


def ref_vertical_factorizations(C):
    m, n = C.m, C.n
    pts = boundary_points(m, n, n)
    N = len(pts)
    total_arcs = len(C.pairs)
    outside_js = {arc: _adjacent_descriptions(arc, m, n) for arc in C.pairs}
    out = []
    for start in range(N):
        for length in range(4, N, 2):
            interval = [pts[(start + k) % N] for k in range(length)]
            iset = set(interval)
            lam_arcs = []
            closed = True
            for arc in C.pairs:
                inside = (arc[0] in iset) + (arc[1] in iset)
                if inside == 1:
                    closed = False
                    break
                if inside == 2:
                    lam_arcs.append(arc)
            if not closed or 2 * len(lam_arcs) != length:
                continue
            if not 1 < len(lam_arcs) < total_arcs:
                continue
            sides = {p[0] for p in interval}
            if "L" in sides and "R" in sides:
                continue
            lam_js = sorted(j for arc in lam_arcs for j in outside_js[arc])
            if lam_js:
                if lam_js[0] < 0 or lam_js[-1] > m:
                    continue
                lam_set = set(lam_arcs)
                foreign = (
                    j for arc in C.pairs if arc not in lam_set for j in outside_js[arc]
                )
                if any(lam_js[0] < j < lam_js[-1] for j in foreign):
                    continue
            out.append(E.LocalFamily(start, length, tuple(lam_arcs)))
    return out


# -- inputs -----------------------------------------------------------------------


def small_states():
    for total in range(1, 9):
        for m in range(total + 1):
            yield from S.enumerate_catalan(m, total - m)


def random_state(rng, m, n):
    """A random noncrossing matching of the Cat(m,n) boundary, built as a
    random balanced bracket word read clockwise."""
    pts = boundary_points(m, n, n)
    stack, pairs = [], []
    for k in range(len(pts)):
        left = len(pts) - k
        if stack and (len(stack) == left or rng.random() < 0.5):
            pairs.append((pts[stack.pop()], pts[k]))
        else:
            stack.append(k)
    return S.new_connection(m, n, n, pairs)


def random_states():
    rng = random.Random(20221018)
    for m, n in ((5, 6), (6, 6)):
        for _ in range(200):
            yield random_state(rng, m, n)


# -- comparisons --------------------------------------------------------------------


def check_state(C, each_arc=True):
    m, n = C.m, C.n
    for i in range(m + 1):
        assert S.line_intersections(C, "horizontal", i) == ref_line_intersections(
            C, "horizontal", i
        ), (S.render_state(C), "horizontal", i)
    for j in range(n + 1):
        assert S.line_intersections(C, "vertical", j) == ref_line_intersections(
            C, "vertical", j
        ), (S.render_state(C), "vertical", j)
    assert S.is_realizable(C) == ref_is_realizable(C), S.render_state(C)
    removable = [arc for arc in C.pairs if ref_is_removable(C, arc)]
    assert S.find_removable_arcs(C) == removable, S.render_state(C)
    if each_arc:
        assert [arc for arc in C.pairs if S.is_removable(C, arc)] == removable
    families = E.iter_vertical_factorizations(C)
    assert list(families) == ref_vertical_factorizations(C), S.render_state(C)
    for i in range(m + 1):
        if S.line_intersections(C, "horizontal", i) == n:
            assert S.vertical_product(*S.split_at(C, i)) == C, (S.render_state(C), i)


def test_every_state_up_to_eight_boundary_pairs():
    count = 0
    for C in small_states():
        # is_removable asks about one arc; every arc of the larger states
        # is covered through find_removable_arcs
        check_state(C, each_arc=len(C.pairs) <= 6)
        count += 1
    assert count == sum((t + 1) * c for t, c in enumerate(
        [1, 2, 5, 14, 42, 132, 429, 1430], start=1
    ))


def test_random_states_at_cat_5_6_and_6_6():
    seen = set()
    for C in random_states():
        check_state(C)
        seen.add(C)
    assert len(seen) > 300


def test_removability_of_a_named_arc_form():
    C = S.parse_state("cat(2,2): T1-T2, L1-B2, L2-B1, R1-R2")
    assert S.is_removable(C, (("B", 2), ("L", 1)))
    with pytest.raises(ValueError, match="arc not in state"):
        S.is_removable(C, (("T", 1), ("B", 1)))
