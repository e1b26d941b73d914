"""The clockwise boundary view against the definitions it replaced.

Cut-line counts, the arc census, side-walk levels, removable arcs, local
families, the symmetries, the tau-shifts, arc removal, the tree of a state
and extended labels are all read off one clockwise view of a state
(``states.view``: its points in ``boundary_points`` order, each point's
partner position, the side-walk levels, the census and the cut-line
counts).  The functions below are the earlier direct definitions, kept
literally as references: a region set per cut line, a census loop over
the pairs, a point-by-point index on each side walk, a token list with
corner sentinels for the two sides of an arc, a scan of every arc for
every (start, length) boundary interval, a point map per side for the
half turn, the quarter turn and the tau-shifts, arc removal through the
half turn and the side-to-top shifts, the tree read off the fully shifted
state, and one extended-label branch per pair of sides.  They are
compared with the library on every state with m + n <= 8 and on seeded
random states of Cat(5,6) and Cat(6,6).

``ref_new_connection`` is the earlier validator over point pairs (a
pairwise crossing scan and a sort by reading rank), compared with
``new_connection`` on every perfect matching of up to ten boundary points.
``ref_sibling_chain_factorizations`` is the earlier family scan (every
point of each sibling span added to an inside set and a side set, and the
levels of every arc re-read per interval), compared with
``iter_vertical_factorizations`` on every state with mn <= 8 and on seeded
random states up to Cat(7,7).
"""

import random

import pytest

from catlattice import coeff as E
from catlattice import samples
from catlattice import states as S
from catlattice import trees as T
from catlattice.states import (
    Connection,
    Pair,
    Point,
    _find_pair,
    _point_text,
    _rank,
    _shape,
    boundary_points,
    classify,
    is_proper_arc,
    new_connection,
)
from catlattice.trees import CHILDREN_LEFT_TO_RIGHT, Node


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


def ref_classify(C):
    census = {"TT": 0, "BB": 0, "LL": 0, "RR": 0, "TB": 0}
    for p, q in C.pairs:
        key = "".join(sorted((p[0], q[0])))
        key = {"BT": "TB"}.get(key, key)
        if key in census:
            census[key] += 1
    return S.StateClass(
        top_returns=census["TT"],
        bottom_returns=census["BB"],
        left_returns=census["LL"],
        right_returns=census["RR"],
        top_bottom_arcs=census["TB"],
    )


def ref_left_walk(p: Point, m: int, n: int):
    """Index of p on the extended left-side walk, None for right points."""
    side, i = p
    if side == "T":
        return 1 - i
    if side == "L":
        return i
    if side == "B":
        return m + i
    return None


def ref_right_walk(p: Point, m: int, n: int):
    side, i = p
    if side == "T":
        return i - n
    if side == "R":
        return i
    if side == "B":
        return m + n + 1 - i
    return None


def ref_adjacent_descriptions(c, m: int, n: int) -> set[int]:
    """Walk indices j such that c joins consecutive slots j, j+1 of a side walk."""
    out: set[int] = set()
    for walk in (ref_left_walk, ref_right_walk):
        u, v = walk(c[0], m, n), walk(c[1], m, n)
        if u is not None and v is not None and abs(u - v) == 1:
            out.add(min(u, v))
    return out


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
        bucket.extend(ref_adjacent_descriptions(arc, m, n))
    return max(top_side) <= min(bottom_side) - 1


def ref_vertical_factorizations(C):
    m, n = C.m, C.n
    pts = boundary_points(m, n, n)
    N = len(pts)
    total_arcs = len(C.pairs)
    outside_js = {arc: ref_adjacent_descriptions(arc, m, n) for arc in C.pairs}
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


def ref_half_turn_point(C: Connection, p: Point) -> Point:
    """Image of a boundary point of C under the half turn."""
    side, i = p
    if side == "T":
        return ("B", C.n_t + 1 - i)
    if side == "B":
        return ("T", C.n_b + 1 - i)
    if side == "L":
        return ("R", C.m + 1 - i)
    return ("L", C.m + 1 - i)


def ref_rotate_pi(C: Connection) -> Connection:
    """Rotate the rectangle by a half turn (an involution)."""
    pairs = [
        (ref_half_turn_point(C, p), ref_half_turn_point(C, q)) for p, q in C.pairs
    ]
    return new_connection(C.m, C.n_b, C.n_t, pairs)


def ref_rotate_quarter(C: Connection) -> Connection:
    """Rotate a Catalan state clockwise by a quarter turn: Cat(m,n) -> Cat(n,m)."""
    n = C.n

    def f(p: Point) -> Point:
        side, i = p
        if side == "L":
            return ("T", C.m + 1 - i)
        if side == "T":
            return ("R", i)
        if side == "R":
            return ("B", C.m + 1 - i)
        return ("L", i)

    return new_connection(n, C.m, C.m, [(f(p), f(q)) for p, q in C.pairs])


def ref_tau_shift(C: Connection, t: int) -> Connection:
    """Slide t points of each side onto the top edge (t < 0 folds back down).

    Positive t turns the first t left points and first t right points into
    new top corners, giving a connection with m-t rows and top width
    n_t + 2t; the boundary sequence itself is unchanged, so noncrossing is
    preserved.  Negative t = -s folds the s outermost top points of each
    corner down the sides.  The bottom edge never moves.
    """
    if t == 0:
        return C
    n_t = C.n_t
    if t > 0:
        if t > C.m:
            raise ValueError("shift out of range")

        def f(p: Point) -> Point:
            side, i = p
            if side == "B":
                return p
            if side == "L":
                return ("T", t + 1 - i) if i <= t else ("L", i - t)
            if side == "R":
                return ("T", t + n_t + i) if i <= t else ("R", i - t)
            return ("T", t + i)

        return new_connection(
            C.m - t, n_t + 2 * t, C.n_b, [(f(p), f(q)) for p, q in C.pairs]
        )
    s = -t
    if 2 * s > n_t:
        raise ValueError("shift out of range")

    def g(p: Point) -> Point:
        side, i = p
        if side == "B":
            return p
        if side == "L":
            return ("L", i + s)
        if side == "R":
            return ("R", i + s)
        if i <= s:
            return ("L", s + 1 - i)
        if i > n_t - s:
            return ("R", i - (n_t - s))
        return ("T", i - s)

    return new_connection(
        C.m + s, n_t - 2 * s, C.n_b, [(g(p), g(q)) for p, q in C.pairs]
    )


def ref_tree_from_state(C) -> Node:
    """Plane rooted tree of a Catalan state without bottom returns.

    Unfold the side points over the top, so the state becomes arches over a
    word plus strands dropping to the bottom edge.  The strands form a path
    below the root (deepest strand = leftmost bottom point); every arch
    hangs under the deepest strand vertex, or under the arch directly
    enclosing it, keeping word order.  A leaf arch that was a side return
    of the original state starts with delay equal to its lower end's index.
    """
    n = C.n
    if classify(C).bottom_returns:
        raise ValueError("state has bottom returns")
    m = C.m
    D = ref_tau_shift(C, m) if m else C

    def original(w: int):
        if w <= m:
            return ("L", m + 1 - w)
        if w <= m + n:
            return ("T", w - m)
        return ("R", w - m - n)

    arches: list[tuple[int, int]] = []
    for p, q in D.pairs:
        if p[0] == "T" and q[0] == "T":
            a, b = sorted((p[1], q[1]))
            arches.append((a, b))

    def arch_delay(a: int, b: int) -> int:
        pa, pb = original(a), original(b)
        if pa[0] == pb[0] and pa[0] in ("L", "R"):
            return max(pa[1], pb[1])
        return 1

    # group arches into a nesting forest, children in word order
    arches.sort(key=lambda ab: (ab[0], -ab[1]))
    roots: list = []
    stack: list = []  # (a, b, children)
    for a, b in arches:
        rec = (a, b, [])
        while stack and stack[-1][1] < a:
            stack.pop()
        if stack:
            stack[-1][2].append(rec)
        else:
            roots.append(rec)
        stack.append(rec)

    def build(rec) -> Node:
        a, b, kids = rec
        if not kids:
            return Node((), arch_delay(a, b))
        ordered = kids if CHILDREN_LEFT_TO_RIGHT else list(reversed(kids))
        return Node(tuple(build(kid) for kid in ordered))

    top = [build(r) for r in (roots if CHILDREN_LEFT_TO_RIGHT else reversed(roots))]
    node = Node(tuple(top)) if top or n == 0 else Node((), 1)
    for _ in range(n):
        node = Node((node,))
    return node


def ref_extended_labels(C: Connection, c) -> tuple[int, int]:
    """Labels (a, b) writing a proper arc as joining L_a to R_b.

    The left and bottom edges extend the left-side numbering (top points
    count down from 0, bottom points continue past m); symmetrically for
    the right side.  Returns and corner arcs are labeled through the
    extension; side returns are rejected.
    """
    m, n = C.m, C.n
    c = _find_pair(C, c)
    by_side: dict[str, list[int]] = {}
    for side, i in c:
        by_side.setdefault(side, []).append(i)
    sides = frozenset(by_side)
    if sides == frozenset({"L", "R"}):
        return by_side["L"][0], by_side["R"][0]
    if sides == frozenset({"L", "T"}):
        return by_side["L"][0], by_side["T"][0] - n
    if sides == frozenset({"T", "R"}):
        return 1 - by_side["T"][0], by_side["R"][0]
    if sides == frozenset({"T"}):
        i, j = sorted(by_side["T"])
        return 1 - i, j - n
    if sides == frozenset({"L", "B"}):
        return by_side["L"][0], m + n + 1 - by_side["B"][0]
    if sides == frozenset({"R", "B"}):
        return m + by_side["B"][0], by_side["R"][0]
    if sides == frozenset({"B"}):
        i, j = sorted(by_side["B"])
        return m + i, m + n + 1 - j
    raise ValueError("arc has no extended labels")


def ref_remove_arc(C, c):
    n = C.n
    if C.m == 0:
        raise ValueError("no rows left to absorb a removal")
    c = _find_pair(C, c)
    if not is_proper_arc(C, c):
        raise ValueError("arc is not proper")
    if "B" in (c[0][0], c[1][0]):
        flip = ref_rotate_pi(C)
        fc = _find_pair(
            flip, (ref_half_turn_point(C, c[0]), ref_half_turn_point(C, c[1]))
        )
        return ref_rotate_pi(ref_remove_arc(flip, fc))
    D = ref_tau_shift(C, C.m)

    def unfolded(p: Point) -> int:
        side, i = p
        if side == "L":
            return C.m + 1 - i
        if side == "T":
            return C.m + i
        return C.m + n + i  # R

    a, b = sorted((unfolded(c[0]), unfolded(c[1])))

    def squeeze(p: Point) -> Point:
        side, i = p
        if side == "B":
            return p
        return ("T", i - (i > a) - (i > b))

    kept = [
        (squeeze(p), squeeze(q))
        for p, q in D.pairs
        if frozenset((p, q)) != frozenset((("T", a), ("T", b)))
    ]
    D2 = new_connection(0, D.n_t - 2, D.n_b, kept)
    return ref_tau_shift(D2, -(C.m - 1)) if C.m > 1 else D2


def ref_new_connection(m: int, n_t: int, n_b: int, pairs) -> tuple[Pair, ...]:
    """Validate and canonicalize a set of pairs; returns the canonical pairs
    (the earlier validator, kept literally but for its first and last line:
    it reads two of ``_shape``'s fields and returns the pairs rather than a
    Connection).
    """
    if min(m, n_t, n_b) < 0:
        raise ValueError(f"negative grid size in ({m}, {n_t}, {n_b})")
    points, pos = _shape(m, n_t, n_b)[:2]
    seen: set[Point] = set()
    arcs: list[tuple[int, int, Pair]] = []
    for raw in pairs:
        p, q = raw
        for pt in (p, q):
            if pt not in pos:
                raise ValueError(f"unknown point {_point_text(pt)}")
            if pt in seen:
                raise ValueError(f"duplicate point {_point_text(pt)}")
            seen.add(pt)
        a, b = pos[p], pos[q]
        if a > b:
            p, q, a, b = q, p, b, a
        arcs.append((a, b, (p, q)))
    if len(seen) != len(pos):
        missing = next(pt for pt in points if pt not in seen)
        raise ValueError(f"unmatched point {_point_text(missing)}")
    arcs.sort()
    for i, (a1, b1, pr1) in enumerate(arcs):
        for a2, b2, pr2 in arcs[i + 1 :]:
            if a2 > b1:
                break
            # a1 < a2 by sort; crossing iff the second arc straddles b1
            if a2 < b1 < b2:
                raise ValueError(
                    f"crossing pair {_point_text(pr1[0])}-{_point_text(pr1[1])} / "
                    f"{_point_text(pr2[0])}-{_point_text(pr2[1])}"
                )
    canon = []
    for _, _, (p, q) in arcs:
        if _rank(q) < _rank(p):
            p, q = q, p
        canon.append((p, q))
    canon.sort(key=lambda pr: _rank(pr[0]))
    return tuple(canon)


def ref_sibling_chain_factorizations(C) -> list:
    """The earlier family scan over sibling chains, kept literally but for
    collecting its yields in a list and the module prefixes."""
    out = []
    m, N = C.m, 2 * (C.m + C.n)
    v = S.view(C)
    pts, mate, levels = v.points, C.mate, v.levels
    for start in range(N):
        inside, sides, length = set(), set(), 0
        while True:
            span = (mate[(start + length) % N] - start - length) % N + 1
            if length + span >= N:
                break
            for k in range(start + length, start + length + span):
                inside.add(v.pair[k % N])
                sides.add(pts[k % N][0])
            length += span
            if "L" in sides and "R" in sides:
                break
            if length < 4:
                continue
            lam_js = [j for r in inside for j in levels[r]]
            if lam_js:
                lo, hi = min(lam_js), max(lam_js)
                if lo < 0 or hi > m:
                    continue
                foreign = (
                    j
                    for r, js in enumerate(levels)
                    if r not in inside
                    for j in js
                )
                if any(lo < j < hi for j in foreign):
                    continue
            out.append(E.LocalFamily(start, length, tuple(C.pairs[r] for r in sorted(inside))))
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


def check_cuts_and_census(C):
    """Every cut line and the census of a connection; vertical cuts only
    exist on Catalan states."""
    for i in range(C.m + 1):
        assert S.line_intersections(C, "horizontal", i) == ref_line_intersections(
            C, "horizontal", i
        ), (C, "horizontal", i)
    if C.is_catalan:
        for j in range(C.n + 1):
            assert S.line_intersections(C, "vertical", j) == ref_line_intersections(
                C, "vertical", j
            ), (C, "vertical", j)
    else:
        with pytest.raises(ValueError, match="connection is not a Catalan state"):
            S.line_intersections(C, "vertical", 0)
    assert S.classify(C) == ref_classify(C), C


def check_state(C, each_arc=True):
    m, n = C.m, C.n
    check_cuts_and_census(C)
    assert [set(js) for js in S.view(C).levels] == [
        ref_adjacent_descriptions(arc, m, n) for arc in C.pairs
    ], S.render_state(C)
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
    removals = 0
    for arc in C.pairs:
        try:
            want = ref_remove_arc(C, arc)
        except ValueError as err:
            with pytest.raises(ValueError, match=str(err)):
                S.remove_arc(C, arc)
            continue
        assert S.remove_arc(C, arc) == want, (S.render_state(C), arc)
        removals += 1
    return removals


def same_or_same_error(got, want, *args):
    """Call want(*args); got(*args) must return the same or raise the same."""
    try:
        expected = want(*args)
    except ValueError as err:
        with pytest.raises(ValueError, match=str(err)):
            got(*args)
        return None
    assert got(*args) == expected, args
    return expected


def check_relabellings(C):
    """Half and quarter turn, every tau-shift of C (one past each end of the
    range must fail the same way), each upward shift shifted back down and
    one step too far down, the tree of the state and the extended labels of
    every arc."""
    assert S.rotate_pi(C) == ref_rotate_pi(C), S.render_state(C)
    assert S.rotate_quarter(C) == ref_rotate_quarter(C), S.render_state(C)
    for t in range(-(C.n_t // 2) - 1, C.m + 2):
        D = same_or_same_error(S.tau_shift, ref_tau_shift, C, t)
        if D is not None:
            check_cuts_and_census(D)
        if D is not None and t > 0:
            assert same_or_same_error(S.tau_shift, ref_tau_shift, D, -t) == C
            same_or_same_error(S.tau_shift, ref_tau_shift, D, -(D.n_t // 2) - 1)
    same_or_same_error(T.tree_from_state, ref_tree_from_state, C)
    for arc in C.pairs:
        same_or_same_error(S.extended_labels, ref_extended_labels, C, arc)


def test_every_state_up_to_eight_boundary_pairs():
    count = removals = 0
    for C in small_states():
        # is_removable asks about one arc; every arc of the larger states
        # is covered through find_removable_arcs
        removals += check_state(C, each_arc=len(C.pairs) <= 6)
        check_relabellings(C)
        count += 1
    assert count == sum((t + 1) * c for t, c in enumerate(
        [1, 2, 5, 14, 42, 132, 429, 1430], start=1
    ))
    assert removals == 73983


def test_random_states_at_cat_5_6_and_6_6():
    seen = set()
    for C in random_states():
        check_state(C)
        check_relabellings(C)
        seen.add(C)
    assert len(seen) > 300


def test_plucking_memo_is_bounded():
    assert T._plucking.cache_info().maxsize is not None


def test_view_cache_is_bounded():
    assert S.view.cache_info().maxsize is not None


def test_side_walk_cache_is_bounded():
    assert S._side_walks.cache_info().maxsize is not None


@pytest.mark.parametrize(
    "C, kind",
    [
        (S.parse_state("cat(2,3): T1-L1, T2-T3, L2-B1, R1-B2, R2-B3"), "tree-formula"),
        (samples.factor_sample_state(), "vertical-factor"),
    ],
    ids=["tree-formula", "vertical-factor"],
)
def test_one_coefficient_call_builds_each_view_once(monkeypatch, C, kind):
    asked = set()
    cached = S.view

    def spy(D):
        asked.add(D)
        return cached(D)

    for module in (S, E):
        monkeypatch.setattr(module, "view", spy)
    cached.cache_clear()
    _, trace = E.coefficient(C)
    assert kind in [step.kind for step in trace]
    assert C in asked
    assert cached.cache_info().misses == len(asked)


def perfect_matchings(points):
    """Every perfect matching of a list of points, crossings included."""
    if not points:
        yield []
        return
    first = points[0]
    for k in range(1, len(points)):
        rest = points[1:k] + points[k + 1 :]
        for matching in perfect_matchings(rest):
            yield [(first, points[k])] + matching


def same_validation(shape, pairs):
    """new_connection gives the reference's pairs or raises its error."""
    try:
        want = ref_new_connection(*shape, pairs)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            S.new_connection(*shape, pairs)
        assert str(got.value) == str(err), (shape, pairs)
        return None
    C = S.new_connection(*shape, pairs)
    assert C.pairs == want, (shape, pairs)
    return C


def test_validator_matches_the_pairwise_reference():
    rng = random.Random(20261018)
    built = crossing = 0
    for size in range(0, 11):
        for m in range(size // 2 + 1):
            for n_t in range(size - 2 * m + 1):
                shape = (m, n_t, size - 2 * m - n_t)
                points = boundary_points(*shape)
                if size % 2:
                    # no perfect matching: one point stays unmatched
                    pairs = list(zip(points[1::2], points[2::2]))
                    same_validation(shape, pairs)
                    continue
                for pairs in perfect_matchings(points):
                    C = same_validation(shape, pairs)
                    if C is None:
                        crossing += 1
                        same_validation(shape, [(q, p) for p, q in pairs[::-1]])
                        continue
                    built += 1
                    assert S._from_mate(*shape, C.mate) == C
                    shuffled = [(q, p) if rng.random() < 0.5 else (p, q)
                                for p, q in pairs]
                    rng.shuffle(shuffled)
                    D = same_validation(shape, shuffled)
                    assert D == C and hash(D) == hash(C)
                if size >= 2:
                    # a self pair, an unknown point, and a missing pair
                    p, q = points[0], points[-1]
                    rest = list(zip(points[1::2], points[2::2]))
                    same_validation(shape, [(p, p)] + rest)
                    same_validation(shape, [(p, ("X", 1))])
                    same_validation(shape, [(p, ("T", shape[1] + 1))])
                    same_validation(shape, [(p, q)])
                    same_validation(shape, [(p, q), (q, p)])
    # a Catalan number of noncrossing matchings per shape, the rest cross
    assert (built, crossing) == (1965, 34952)


def test_family_scan_matches_the_sibling_chain_reference():
    states = [
        C
        for m in range(1, 9)
        for n in range(1, 8 // m + 1)
        for C in S.enumerate_catalan(m, n)
    ]
    rng = random.Random(20261020)
    for m, n in ((5, 6), (6, 6), (7, 7)):
        states += [random_state(rng, m, n) for _ in range(150)]
    families = 0
    for C in states:
        got = list(E.iter_vertical_factorizations(C))
        assert got == ref_sibling_chain_factorizations(C), S.render_state(C)
        families += len(got)
    assert (len(states), families) == (14642, 24640)


def test_removability_of_a_named_arc_form():
    C = S.parse_state("cat(2,2): T1-T2, L1-B2, L2-B1, R1-R2")
    assert S.is_removable(C, (("B", 2), ("L", 1)))
    with pytest.raises(ValueError, match="arc not in state"):
        S.is_removable(C, (("T", 1), ("B", 1)))
