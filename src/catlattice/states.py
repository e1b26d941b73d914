"""Noncrossing boundary connections of a rectangular grid.

A connection pairs up the boundary points of an m-row grid piece: top
points T1..Tn_t (left to right), bottom points B1..Bn_b (left to right),
left points L1..Lm and right points R1..Rm (both top to bottom).  Pairs
never cross inside the rectangle.  A *Catalan state* is a connection with
equal top and bottom width.

Text form (Catalan states only)::

    cat(1,2): T1-T2, L1-B1, R1-B2

Points are written T<i>, B<i>, L<i>, R<i>; pairs are listed in reading
order (top, left, right, then bottom points, index ascending), with the
earlier endpoint of each pair written first.

Boundary questions -- cut lines, the arc census, removable arcs, local
families, the tree of a state -- are asked of one clockwise view,
:func:`view`, the one place the boundary encoding is read off the pairs:
the points in :func:`boundary_points` order (T1..Tn_t, R1..Rm, Bn_b..B1,
Lm..L1, positions 0..N-1), the position of each point's partner, the pair
at each position, each arc's side-walk levels, the census and the
crossing count of every cut line.  It is built once per connection and
cached.  The left and right side walks are the clockwise order cut at the
right and the left side, so an arc has a side-walk level only where its
ends are clockwise neighbours.  A cut line is a stretch [a, b) of the
clockwise order, and the arcs it crosses are the arcs with exactly one
end in the stretch.
Horizontal cut i (below L_i and R_i) is the stretch [n_t+i, n_t+2m+n_b-i)
-- everything under the line -- and vertical cut j (right of T_j and B_j)
is [j, 2n+m-j).

Symmetries, tau-shifts and arc removal are relabellings of the same view.
The half turn, the quarter turn and the tau-shifts keep the clockwise
order of the points, and arc removal keeps it for the points it leaves:
each reads the clockwise word from some position, skips the removed arc,
if any, and lays the rest onto the boundary of a rectangle of a new shape
(:func:`_relabel`).  The reflection is the one map that reverses the
order, so it keeps its own point map.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional

Point = tuple[str, int]
Pair = tuple[Point, Point]


class _Zero:
    """Absorbing zero for the vertical product (loop or width mismatch)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "K0"


K0 = _Zero()


@dataclass(frozen=True)
class Connection:
    """A noncrossing perfect matching of grid boundary points.

    Build through :func:`new_connection`, which validates and canonicalizes;
    the constructor itself trusts its arguments.

    Attributes:
        m: number of rows (points per vertical side).
        n_t: top width.
        n_b: bottom width.
        pairs: canonically ordered matched pairs.
    """

    m: int
    n_t: int
    n_b: int
    pairs: tuple[Pair, ...]

    @property
    def n(self) -> int:
        """Common width of a Catalan state."""
        if self.n_t != self.n_b:
            raise ValueError("connection is not a Catalan state")
        return self.n_t

    @property
    def is_catalan(self) -> bool:
        return self.n_t == self.n_b

    def __repr__(self):
        if self.is_catalan:
            return render_state(self)
        body = ", ".join(f"{_point_text(p)}-{_point_text(q)}" for p, q in self.pairs)
        return f"conn({self.m},{self.n_t},{self.n_b}): {body}"


def boundary_points(m: int, n_t: int, n_b: int) -> list[Point]:
    """All boundary points in clockwise order starting at the top left."""
    out: list[Point] = [("T", i) for i in range(1, n_t + 1)]
    out += [("R", j) for j in range(1, m + 1)]
    out += [("B", i) for i in range(n_b, 0, -1)]
    out += [("L", j) for j in range(m, 0, -1)]
    return out


def _point_text(p: Point) -> str:
    return f"{p[0]}{p[1]}"


_SIDE_RANK = {"T": 0, "L": 1, "R": 2, "B": 3}


def _rank(p: Point) -> tuple[int, int]:
    """Reading order used for the canonical pair list: T, L, R, then B."""
    return (_SIDE_RANK[p[0]], p[1])


@lru_cache(maxsize=256)
def _shape(m: int, n_t: int, n_b: int) -> tuple[tuple[Point, ...], dict[Point, int]]:
    """A shape's points in clockwise order and each point's position (read only)."""
    points = tuple(boundary_points(m, n_t, n_b))
    return points, {p: k for k, p in enumerate(points)}


def new_connection(m: int, n_t: int, n_b: int, pairs) -> Connection:
    """Validate and canonicalize a set of pairs into a Connection.

    Args:
        m: rows; n_t / n_b: top and bottom widths.
        pairs: iterable of 2-tuples of points.

    Raises:
        ValueError: on a negative size, an unknown point, a duplicate
            point, an unmatched point, or a crossing pair.
    """
    if min(m, n_t, n_b) < 0:
        raise ValueError(f"negative grid size in ({m}, {n_t}, {n_b})")
    points, pos = _shape(m, n_t, n_b)
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
    return Connection(m, n_t, n_b, tuple(canon))


def render_state(C: Connection) -> str:
    """Canonical text form of a Catalan state."""
    if not C.is_catalan:
        raise ValueError("only Catalan states have a text form")
    body = ", ".join(f"{_point_text(p)}-{_point_text(q)}" for p, q in C.pairs)
    return f"cat({C.m},{C.n_t}):" + (" " + body if body else "")


_STATE_HEAD = re.compile(r"^\s*cat\s*\(\s*(\d+)\s*,\s*(\d+)\s*\)\s*:\s*(.*?)\s*$", re.S)
_PAIR_RE = re.compile(r"^\s*([TBLR])\s*(\d+)\s*-\s*([TBLR])\s*(\d+)\s*$")


def parse_state(s: str) -> Connection:
    """Parse the ``cat(m,n): P-P, ...`` text form."""
    head = _STATE_HEAD.match(s)
    if not head:
        raise ValueError(f"state text must start with 'cat(m,n):', got {s!r}")
    m, n, tail = int(head.group(1)), int(head.group(2)), head.group(3)
    pairs = []
    if tail:
        for chunk in tail.split(","):
            pm = _PAIR_RE.match(chunk)
            if not pm:
                raise ValueError(f"bad pair {chunk.strip()!r} in state text")
            pairs.append(
                ((pm.group(1), int(pm.group(2))), (pm.group(3), int(pm.group(4))))
            )
    return new_connection(m, n, n, pairs)


def identity_state(n: int) -> Connection:
    """The Cat(0,n) state wiring Ti straight down to Bi."""
    return new_connection(0, n, n, [(("T", i), ("B", i)) for i in range(1, n + 1)])


def enumerate_catalan(m: int, n: int) -> Iterator[Connection]:
    """Yield every Catalan state of Cat(m,n) in a fixed lexicographic order.

    The order sorts by the canonical pair list under the clockwise position
    encoding; the count is the Catalan number of m+n.
    """
    points = boundary_points(m, n, n)

    def match(ps: list[Point]) -> Iterator[list[Pair]]:
        if not ps:
            yield []
            return
        first = ps[0]
        for k in range(1, len(ps), 2):
            for inside in match(ps[1:k]):
                for outside in match(ps[k + 1 :]):
                    yield [(first, ps[k])] + inside + outside

    for pairing in match(points):
        yield new_connection(m, n, n, pairing)


def coordinate(p: Point, m: int, n: int) -> int:
    """Boundary coordinate used by the exponent-counting formulas.

    Right points R_i get i, left points L_i get 1-n-i, top points T_i get
    i-n; bottom points have no coordinate.
    """
    side, i = p
    if side == "R":
        return i
    if side == "L":
        return 1 - n - i
    if side == "T":
        return i - n
    raise ValueError("bottom point has no coordinate")


class StateClass(NamedTuple):
    """Arc census of a state (returns = arcs with both ends on one edge)."""

    top_returns: int
    bottom_returns: int
    left_returns: int
    right_returns: int
    top_bottom_arcs: int


class BoundaryView(NamedTuple):
    """Boundary data of one connection (see :func:`view`).

    ``points`` and ``pos`` are shared by every connection of one shape.
    ``mate[k]`` is the position of the partner of the point at k, ``pair[k]``
    the index of its pair in ``C.pairs``, ``levels[r]`` the side-walk
    levels of pair r, and ``horizontal[i]`` and ``vertical[j]`` count the
    arcs crossing cut lines i and j.  ``levels`` and ``vertical`` are None
    unless the connection is a Catalan state.
    """

    points: tuple[Point, ...]
    pos: dict[Point, int]
    mate: tuple[int, ...]
    pair: tuple[int, ...]
    levels: Optional[tuple[tuple[int, ...], ...]]
    census: StateClass
    horizontal: tuple[int, ...]
    vertical: Optional[tuple[int, ...]]


def _cut(C: Connection, orientation: str, i: int) -> tuple[int, int]:
    """The stretch [a, b) of clockwise positions on the far side of a cut."""
    if orientation == "horizontal":
        if not 0 <= i <= C.m:
            raise ValueError("line index out of range")
        return C.n_t + i, C.n_t + 2 * C.m + C.n_b - i
    if orientation == "vertical":
        n = C.n  # vertical cuts need a Catalan state
        if not 0 <= i <= n:
            raise ValueError("line index out of range")
        return i, 2 * n + C.m - i
    raise ValueError(f"unknown orientation {orientation!r}")


def _cut_counts(mate: list[int], a: int, b: int, lines: int) -> tuple[int, ...]:
    """Arcs with exactly one end in each stretch [a+i, b-i), i = 0..lines.

    Dropping an end point from the stretch turns its arc from crossing
    into outside, or from inside into crossing.
    """
    out = [sum(1 for k in range(a, b) if not a <= mate[k] < b)]
    for i in range(1, lines + 1):
        lo, hi = a + i, b - i  # the stretch loses lo - 1, then hi
        step = 1 if lo <= mate[lo - 1] <= hi else -1
        step += 1 if lo <= mate[hi] < hi else -1
        out.append(out[-1] + step)
    return tuple(out)


# one coefficient call asks about some ten distinct states
@lru_cache(maxsize=128)
def view(C: Connection) -> BoundaryView:
    """The clockwise boundary view of C (shared between callers, so read only)."""
    m, n_t = C.m, C.n_t
    points, pos = _shape(m, n_t, C.n_b)
    mate = [0] * len(points)
    pair = [0] * len(points)
    for r, (p, q) in enumerate(C.pairs):
        a, b = pos[p], pos[q]
        mate[a], mate[b] = b, a
        pair[a] = pair[b] = r
    levels = vertical = None
    if C.is_catalan:
        # an arc has a level only where its ends are clockwise neighbours
        step, N = _side_walks(m, n_t)[2], len(points)
        found = [()] * len(C.pairs)
        for k in range(N):
            if mate[k] == (k + 1) % N:
                found[pair[k]] = step[k]
        levels = tuple(found)
        vertical = _cut_counts(mate, *_cut(C, "vertical", 0), n_t)
    kinds = [p[0] + q[0] for p, q in C.pairs]  # canonical pairs list a T end first
    census = StateClass(*(kinds.count(k) for k in ("TT", "BB", "LL", "RR", "TB")))
    horizontal = _cut_counts(mate, *_cut(C, "horizontal", 0), m)
    return BoundaryView(
        points, pos, tuple(mate), tuple(pair), levels, census, horizontal, vertical
    )


def line_intersections(C: Connection, orientation: str, i: int) -> int:
    """Number of arcs crossing a horizontal or vertical cut line.

    Horizontal line i (0 <= i <= m) separates the top edge plus the first
    i points of each vertical side; vertical line j (0 <= j <= n) separates
    the left edge plus the first j points of top and bottom.
    """
    _cut(C, orientation, i)  # rejects a bad line, and vertical non-Catalan cuts
    v = view(C)
    return (v.horizontal if orientation == "horizontal" else v.vertical)[i]


def is_realizable(C: Connection) -> bool:
    """Whether the state is reachable by smoothing an m x n crossing grid.

    True iff no interior horizontal line is crossed more than n times and
    no interior vertical line more than m times.
    """
    n, v = C.n, view(C)
    if any(k > n for k in v.horizontal[1 : C.m]):
        return False
    return all(k <= C.m for k in v.vertical[1:n])


def classify(C: Connection) -> StateClass:
    return view(C).census


def is_proper_arc(C: Connection, c: Pair) -> bool:
    """Proper arcs may be removed: no top-to-bottom strands, no side returns."""
    sides = {c[0][0], c[1][0]}
    if sides == {"T", "B"}:
        return False
    if sides == {"L"} or sides == {"R"}:
        return False
    return True


# -- symmetries ---------------------------------------------------------


@lru_cache(maxsize=1024)
def _relabelling(
    shape: tuple[int, int, int],
    start: int,
    target: tuple[int, int, int],
    at: int,
    drop: tuple[int, ...],
) -> dict[Point, Point]:
    """Point map of :func:`_relabel`, one per distinct set of arguments
    (shared between callers, so read only)."""
    source, image = boundary_points(*shape), boundary_points(*target)
    N = len(source)
    word = [(start + j) % N for j in range(N)]
    word = [k for k in word if k not in drop]
    return {source[k]: image[(at + j) % len(image)] for j, k in enumerate(word)}


def _relabel(
    C: Connection,
    start: int,
    m: int,
    n_t: int,
    n_b: int,
    at: int = 0,
    drop: tuple[int, ...] = (),
) -> Connection:
    """Lay C's clockwise word onto the boundary of an (m, n_t, n_b) piece.

    The word is read from clockwise position ``start``, skipping the
    positions in ``drop`` (the ends of whole arcs), and its points go to
    ``boundary_points(m, n_t, n_b)`` from position ``at`` on.  The order
    is kept, so arcs stay noncrossing; the result is still built through
    :func:`new_connection`.
    """
    f = _relabelling((C.m, C.n_t, C.n_b), start, (m, n_t, n_b), at, drop)
    return new_connection(m, n_t, n_b, [(f[p], f[q]) for p, q in C.pairs if p in f])


def rotate_pi(C: Connection) -> Connection:
    """Rotate the rectangle by a half turn (an involution)."""
    return _relabel(C, C.n_t + C.m, C.m, C.n_b, C.n_t)


def reflect(C: Connection) -> Connection:
    """Reflect across the vertical axis (an involution)."""

    def f(p: Point) -> Point:
        side, i = p
        if side == "T":
            return ("T", C.n_t + 1 - i)
        if side == "B":
            return ("B", C.n_b + 1 - i)
        return ("R" if side == "L" else "L", i)

    return new_connection(C.m, C.n_t, C.n_b, [(f(p), f(q)) for p, q in C.pairs])


def rotate_quarter(C: Connection) -> Connection:
    """Rotate a Catalan state clockwise by a quarter turn: Cat(m,n) -> Cat(n,m)."""
    n = C.n
    return _relabel(C, 2 * n + C.m, n, C.m, C.m)


# -- gluing and the vertical product -------------------------------------


def glue_vertical(C1: Connection, C2: Connection) -> tuple[Connection, int]:
    """Stack C1 on top of C2, joining C1's bottom to C2's top.

    Returns the glued connection together with the number of closed loops
    swallowed at the interface.  Widths must agree.
    """
    if C1.n_b != C2.n_t:
        raise ValueError("widths do not match")
    partner = {}
    for tag, conn in ((1, C1), (2, C2)):
        for p, q in conn.pairs:
            partner[(tag, p)] = (tag, q)
            partner[(tag, q)] = (tag, p)

    def inner(pt: Point):
        """Product boundary point -> node of the piece that owns it."""
        side, i = pt
        if side == "T":
            return (1, pt)
        if side == "B":
            return (2, pt)
        if i <= C1.m:
            return (1, pt)
        return (2, (side, i - C1.m))

    def outer(node) -> Optional[Point]:
        """Node -> product boundary point, or None on the glued interface."""
        tag, (side, i) = node
        if tag == 1 and side == "B":
            return None
        if tag == 2 and side == "T":
            return None
        if tag == 2 and side in ("L", "R"):
            return (side, C1.m + i)
        return (side, i)

    def across(node):
        tag, (side, i) = node
        return (2, ("T", i)) if tag == 1 else (1, ("B", i))

    m = C1.m + C2.m
    done: set[Point] = set()
    touched = set()
    pairs: list[Pair] = []
    for start in boundary_points(m, C1.n_t, C2.n_b):
        if start in done:
            continue
        node = partner[inner(start)]
        while outer(node) is None:
            touched.add(node)
            hop = across(node)
            touched.add(hop)
            node = partner[hop]
        end = outer(node)
        done.add(start)
        done.add(end)
        pairs.append((start, end))
    loops = 0
    for node in partner:
        if outer(node) is not None or node in touched:
            continue
        loops += 1
        cur = node
        while cur not in touched:
            touched.add(cur)
            hop = across(cur)
            touched.add(hop)
            cur = partner[hop]
    return new_connection(m, C1.n_t, C2.n_b, pairs), loops


def vertical_product(C1, C2):
    """Stack two states; K0 absorbs width mismatches and closed loops."""
    if C1 is K0 or C2 is K0:
        return K0
    if C1.n_b != C2.n_t:
        return K0
    glued, loops = glue_vertical(C1, C2)
    return K0 if loops else glued


# -- sliding side points over the top edge --------------------------------


def tau_shift(C: Connection, t: int) -> Connection:
    """Slide t points of each side onto the top edge (t < 0 folds back down).

    Positive t turns the first t left points and first t right points into
    new top corners, giving a connection with m-t rows and top width
    n_t + 2t: the clockwise word read from L_t becomes the new one from T1.
    Negative t = -s folds the s outermost top points of each corner down
    the sides: the word read from T_(s+1) does.  The bottom edge never
    moves.
    """
    if t == 0:
        return C
    if t > 0:
        if t > C.m:
            raise ValueError("shift out of range")
        start = C.n_t + C.n_b + 2 * C.m - t
    else:
        if -2 * t > C.n_t:
            raise ValueError("shift out of range")
        start = -t
    return _relabel(C, start, C.m - t, C.n_t + 2 * t, C.n_b)


# -- arc removal ----------------------------------------------------------


def _find_pair(C: Connection, c) -> Pair:
    want = frozenset(c)
    for pr in C.pairs:
        if frozenset(pr) == want:
            return pr
    raise ValueError("arc not in state")


def remove_arc(C: Connection, c) -> Connection:
    """Delete a proper arc, absorbing one row: Cat(m,n) -> Cat(m-1,n).

    Read the clockwise view from the corner of the edge that stays fixed
    -- L_m (the bottom edge stays) for an arc with no bottom end, R_1 (the
    top edge stays) for one with a bottom end -- drop the arc's two points
    and lay the rest onto Cat(m-1,n) from its L_(m-1) or R_1.
    """
    n, m = C.n, C.m
    if m == 0:
        raise ValueError("no rows left to absorb a removal")
    c = _find_pair(C, c)
    if not is_proper_arc(C, c):
        raise ValueError("arc is not proper")
    pos = view(C).pos
    if "B" in (c[0][0], c[1][0]):
        start, at = n, n
    else:
        start, at = 2 * n + m, 2 * n + m - 1
    return _relabel(C, start, m - 1, n, n, at, tuple(sorted((pos[c[0]], pos[c[1]]))))


# -- extended labels and removability -------------------------------------


def extended_labels(C: Connection, c) -> tuple[int, int]:
    """Labels (a, b) writing a proper arc as joining L_a to R_b.

    The left and bottom edges extend the left-side numbering (top points
    count down from 0, bottom points continue past m); symmetrically for
    the right side.  a is the left-walk index of the end further left (L
    at x=0, T_i and B_i at x=i, R at x=n+1) and b the right-walk index of
    the other end.  Top-to-bottom strands and side returns are rejected.
    """
    m, n = C.m, C.n
    c = _find_pair(C, c)
    if not is_proper_arc(C, c):
        raise ValueError("arc has no extended labels")
    x = {"L": 0, "R": n + 1}
    p, q = sorted(c, key=lambda pt: x.get(pt[0], pt[1]))
    left, right, _ = _side_walks(m, n)
    pos = view(C).pos
    return left[pos[p]], right[pos[q]]


@lru_cache(maxsize=256)
def _side_walks(m: int, n: int) -> tuple[list, list, list]:
    """Side-walk data of Cat(m,n) by clockwise position k (read only).

    Each walk is the clockwise order cut at one vertical side, and has no
    index (None) there.  The left walk (cut at R) numbers Tn..T1 from 1-n
    to 0, then L1..Lm and B1..Bn from 1 to m+n; the right walk (cut at L)
    numbers T1..Tn from 1-n to 0, then R1..Rm and Bn..B1 from 1 to m+n.
    ``step[k]`` holds the levels of an arc joining k to k+1: the lower of
    the two indices on each walk where they are consecutive (which drops
    a walk's wrap across an empty side).
    """
    N = 2 * (m + n)
    left = [-k if k < n else None if k < n + m else N - k for k in range(N)]
    right = [k - n + 1 if k < 2 * n + m else None for k in range(N)]
    step = []
    for k in range(N):
        ends = [(walk[k], walk[(k + 1) % N]) for walk in (left, right)]
        js = {min(u, w) for u, w in ends if None not in (u, w) and abs(u - w) == 1}
        step.append(tuple(js))
    return left, right, step


def _removable(C: Connection, candidates) -> list[Pair]:
    """The removable arcs among ``candidates`` (pairs of C), in their order.

    An arc c splits the other arcs into those strictly inside its clockwise
    interval and those outside.  The inside is c's bottom side when c has a
    bottom end or its interval covers the R_m/B_n corner, its top side
    otherwise.  c is removable when it is proper and every side-walk level
    on its top side is smaller (higher up) than every level on its bottom
    side, level 0 counting as top and level m as bottom (so nothing is
    removable at m=0).
    """
    m, n = C.m, C.n
    v = view(C)
    levels = [(v.pos[arc[0]], js) for arc, js in zip(C.pairs, v.levels) if js]
    out = []
    for c in candidates:
        if not is_proper_arc(C, c):
            continue
        a, b = sorted((v.pos[c[0]], v.pos[c[1]]))
        inside_is_bottom = "B" in (c[0][0], c[1][0]) or a < n + m <= b
        top, bottom = 0, m
        for k, js in levels:
            if k in (a, b):
                continue
            if (a < k < b) == inside_is_bottom:
                bottom = min(bottom, *js)
            else:
                top = max(top, *js)
        if top < bottom:
            out.append(c)
    return out


def is_removable(C: Connection, c) -> bool:
    """Whether deleting c costs only a monomial factor.

    True when c is proper and the side-walk neighbours of every other arc
    can be swept to one region: everything that hugs the boundary above
    some level j0 sits on c's top side, everything below on its bottom
    side.
    """
    return C.m > 0 and bool(_removable(C, [_find_pair(C, c)]))


def find_removable_arcs(C: Connection) -> list[Pair]:
    """All removable arcs, in canonical pair order."""
    return _removable(C, C.pairs)


# -- saturated horizontal lines -------------------------------------------


def is_vertically_decomposable(C: Connection) -> Optional[int]:
    """Smallest i with n arcs crossing horizontal line i, if any (0..m)."""
    n = C.n
    return next((i for i, k in enumerate(view(C).horizontal) if k == n), None)


def split_at(C: Connection, i: int) -> tuple[Connection, Connection]:
    """Cut along a saturated horizontal line into Cat(i,n) * Cat(m-i,n)."""
    n = C.n
    if line_intersections(C, "horizontal", i) != n:
        raise ValueError("line is not saturating")
    a, b = _cut(C, "horizontal", i)
    v = view(C)
    N = len(v.points)

    def lower_point(p: Point) -> Point:
        side, k = p
        return p if side == "B" else (side, k - i)

    upper_pairs, lower_pairs = [], []
    for p, q in C.pairs:
        below = (a <= v.pos[p] < b) + (a <= v.pos[q] < b)
        if below == 0:
            upper_pairs.append((p, q))
        elif below == 2:
            lower_pairs.append((lower_point(p), lower_point(q)))
    # the upper ends of the crossing arcs, read clockwise from L_i round to
    # R_i, meet B1..Bn above the line and T1..Tn below it
    crossing = [k % N for k in range(b, N + a) if a <= v.mate[k % N] < b]
    for j, k in enumerate(crossing, start=1):
        upper_pairs.append((v.points[k], ("B", j)))
        lower_pairs.append((("T", j), lower_point(v.points[v.mate[k]])))
    return (
        new_connection(i, n, n, upper_pairs),
        new_connection(C.m - i, n, n, lower_pairs),
    )
